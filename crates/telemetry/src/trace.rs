//! Causal tracing: deterministic span trees over protocol rounds.
//!
//! The metrics registry (PR 5) answers *how much* — counters and latency
//! histograms aggregated over a whole run. This module answers *why this
//! round, which cell, along which chain*: every round becomes a small tree
//! of [`Event::Span`] records (round → phase spans and cell/fault leaves
//! in the engine; round → barrier/fault/cell leaves in the net runtime), stitched
//! together by seed-derived ids so the same execution always produces the
//! same tree.
//!
//! Three design rules keep the trace compatible with the workspace's
//! byte-identical-reports contract:
//!
//! 1. **Ids are pure functions of `(seed, round, kind, ordinal)`** via the
//!    frozen `dts::hash` primitives (re-exported as `core::hash`). A cell's
//!    per-round span id ([`Tracer::cell_round_id`]) is computed identically
//!    by the emitting worker thread (stamped into `Envelope.cause`), by the
//!    collector (the cell's span in the stream), and by the offline
//!    analyzer — so a delivered, dropped, or delayed message links back to
//!    its emitting cell-round without any shared state.
//! 2. **Logical clocks, not wall clocks, order the tree.** `open`/`close`
//!    ticks come from a per-round sequence counter; `work` counts
//!    deterministic units (cells touched, barrier waits). Measured wall
//!    nanoseconds ride along in `ns` but are never used by the default
//!    [`Trace::render`] output, so double runs of `cellflow trace` diff
//!    byte-identically.
//! 3. **Spans are only emitted when tracing is on**, so default-off streams
//!    and reports stay byte-identical to previous releases.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cellflow_dts::hash::{splitmix64, walk_seed};
use cellflow_grid::CellId;

use crate::event::Event;
use crate::registry::Registry;
use crate::report;

/// Domain-separation salt folded into every tracer seed (ASCII `trace_v1`).
const TRACE_SALT: u64 = 0x7472_6163_655f_7631;

/// Width of the flamegraph bar column, in characters.
const BAR_WIDTH: usize = 32;

/// The vocabulary of span labels, each with a frozen id-derivation code.
///
/// Codes are part of the trace id scheme: changing one changes every id in
/// every trace, so — like the `dts::hash` constants — they must never move.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One protocol round (root of the per-round tree).
    Round,
    /// The Route phase sweep.
    Route,
    /// The Signal phase sweep.
    Signal,
    /// The Move phase sweep.
    Move,
    /// One cell's activity within a round (the causal linking span).
    Cell,
    /// The net runtime's barrier waits for a round.
    Barrier,
    /// A round deadline expiry (root span; the detector is attributed).
    Timeout,
    /// A cell that never arrived at a timed-out barrier (footnote-1
    /// silence made indistinguishable from a crash).
    Silent,
    /// A scripted or emergent crash taking effect.
    Fault,
    /// A cell recovering.
    Recover,
    /// A state-corruption injection.
    Corrupt,
}

impl SpanKind {
    /// The frozen id-derivation code.
    pub fn code(self) -> u64 {
        match self {
            SpanKind::Round => 1,
            SpanKind::Route => 2,
            SpanKind::Signal => 3,
            SpanKind::Move => 4,
            // 5 is unassigned and never reused, so older traces' ids keep
            // their meaning.
            SpanKind::Cell => 6,
            SpanKind::Barrier => 7,
            SpanKind::Timeout => 8,
            SpanKind::Silent => 9,
            SpanKind::Fault => 10,
            SpanKind::Recover => 11,
            SpanKind::Corrupt => 12,
        }
    }

    /// The label serialized into [`Event::Span`].
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::Route => "route",
            SpanKind::Signal => "signal",
            SpanKind::Move => "move",
            SpanKind::Cell => "cell",
            SpanKind::Barrier => "barrier",
            SpanKind::Timeout => "timeout",
            SpanKind::Silent => "silent",
            SpanKind::Fault => "fault",
            SpanKind::Recover => "recover",
            SpanKind::Corrupt => "corrupt",
        }
    }
}

/// The seeded id mint. `Copy` and stateless so every thread (net worker
/// threads, the collector, the offline analyzer) can derive the
/// same ids without coordination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tracer {
    seed: u64,
}

impl Tracer {
    /// Builds a tracer for a campaign seed. The salt domain-separates trace
    /// ids from every other consumer of the shared hash (chaos streams,
    /// supervisor jitter, walk seeds).
    pub fn new(seed: u64) -> Self {
        Tracer {
            seed: splitmix64(seed ^ TRACE_SALT),
        }
    }

    /// The id of the span `(round, kind, ordinal)` — deterministic, nonzero
    /// (0 is the "no parent" sentinel in the stream).
    pub fn span_id(&self, round: u64, kind: SpanKind, ordinal: u64) -> u64 {
        let per_round = splitmix64(self.seed ^ round);
        let per_kind = walk_seed(per_round, kind.code() as usize);
        let id = splitmix64(per_kind ^ ordinal);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// The causal linking id for `cell`'s activity in `round`: stamped into
    /// outgoing message envelopes by the sender, used as the cell's span id
    /// by the collector, and recomputed by analyzers. One id, three sites,
    /// zero shared state.
    pub fn cell_round_id(&self, round: u64, cell: CellId) -> u64 {
        self.span_id(round, SpanKind::Cell, cell_ordinal(cell))
    }
}

/// The per-kind ordinal for a cell: its packed grid coordinate.
pub fn cell_ordinal(cell: CellId) -> u64 {
    ((cell.i() as u64) << 16) | cell.j() as u64
}

/// An in-progress span inside [`SpanBuilder`].
#[derive(Clone, Debug)]
struct SpanRec {
    id: u64,
    parent: u64,
    kind: SpanKind,
    cell: Option<CellId>,
    work: u64,
    open: u64,
    close: u64,
    ns: u64,
}

/// Builds one round's span tree, assigning logical open/close ticks from a
/// deterministic per-round sequence. Emission order is span-open order, so
/// the serialized stream is reproducible.
#[derive(Clone, Debug)]
pub struct SpanBuilder {
    round: u64,
    seq: u64,
    stack: Vec<usize>,
    spans: Vec<SpanRec>,
}

impl SpanBuilder {
    /// Starts an empty tree for `round` (the stream's 1-based round tag).
    pub fn new(round: u64) -> Self {
        SpanBuilder {
            round,
            seq: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The round this builder emits at.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Opens a span as a child of the innermost open span (or as a root).
    pub fn open(&mut self, id: u64, kind: SpanKind) {
        let parent = self.stack.last().map_or(0, |&k| self.spans[k].id);
        self.seq += 1;
        self.spans.push(SpanRec {
            id,
            parent,
            kind,
            cell: None,
            work: 0,
            open: self.seq,
            close: 0,
            ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Opens and immediately closes a child span (the common case for
    /// cell/fault leaves).
    pub fn leaf(&mut self, id: u64, kind: SpanKind, cell: Option<CellId>, work: u64, ns: u64) {
        self.open(id, kind);
        if let Some(cell) = cell {
            self.set_cell(cell);
        }
        self.add_work(work);
        self.add_ns(ns);
        self.close();
    }

    /// Attributes the innermost open span to `cell`.
    pub fn set_cell(&mut self, cell: CellId) {
        if let Some(&k) = self.stack.last() {
            self.spans[k].cell = Some(cell);
        }
    }

    /// Adds deterministic logical work units to the innermost open span.
    pub fn add_work(&mut self, work: u64) {
        if let Some(&k) = self.stack.last() {
            self.spans[k].work += work;
        }
    }

    /// Adds measured wall nanoseconds to the innermost open span.
    pub fn add_ns(&mut self, ns: u64) {
        if let Some(&k) = self.stack.last() {
            self.spans[k].ns += ns;
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(k) = self.stack.pop() {
            self.seq += 1;
            self.spans[k].close = self.seq;
        }
    }

    /// Closes anything still open and returns the tree as events in
    /// span-open order, ready for `EventLog::emit` at [`Self::round`].
    pub fn finish(mut self) -> Vec<Event> {
        while !self.stack.is_empty() {
            self.close();
        }
        self.spans
            .into_iter()
            .map(|s| Event::Span {
                id: s.id,
                parent: s.parent,
                label: s.kind.label().to_string(),
                cell: s.cell,
                work: s.work,
                open: s.open,
                close: s.close,
                ns: s.ns,
            })
            .collect()
    }
}

/// One span parsed back out of a JSONL stream, with its round tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// The stream's round tag.
    pub round: u64,
    /// Span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span label.
    pub label: String,
    /// Attributed cell, if any.
    pub cell: Option<CellId>,
    /// Deterministic logical work units.
    pub work: u64,
    /// Logical open tick.
    pub open: u64,
    /// Logical close tick.
    pub close: u64,
    /// Measured wall nanoseconds (nondeterministic).
    pub ns: u64,
}

/// A parsed trace: every span in stream order, plus stream-level counts.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All spans in stream order.
    pub spans: Vec<TraceSpan>,
    /// Total events in the stream (spans included).
    pub events: usize,
}

/// One row of the per-round critical-path table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// The round.
    pub round: u64,
    /// Work summed along the heaviest root-to-leaf chain.
    pub work: u64,
    /// Labels along the chain, root first.
    pub chain: Vec<String>,
}

impl Trace {
    /// Parses a JSONL event stream, collecting its spans.
    ///
    /// # Errors
    ///
    /// Returns `(line number, problem)` for the first schema-invalid line
    /// (1-based), exactly like [`crate::validate_stream`].
    pub fn parse(text: &str) -> Result<Trace, (usize, String)> {
        let mut trace = Trace::default();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (round, event) = Event::parse_line(line).map_err(|e| (idx + 1, e))?;
            trace.events += 1;
            if let Event::Span {
                id,
                parent,
                label,
                cell,
                work,
                open,
                close,
                ns,
            } = event
            {
                trace.spans.push(TraceSpan {
                    round,
                    id,
                    parent,
                    label,
                    cell,
                    work,
                    open,
                    close,
                    ns,
                });
            }
        }
        Ok(trace)
    }

    /// The distinct rounds that carry spans, ascending.
    pub fn rounds(&self) -> Vec<u64> {
        let mut rounds: Vec<u64> = self.spans.iter().map(|s| s.round).collect();
        rounds.sort_unstable();
        rounds.dedup();
        rounds
    }

    /// Checks the causal invariants the proptest suite pins: span ids are
    /// unique per round, every nonzero parent exists in the same round,
    /// every span closes after it opens, and every parent closes after its
    /// child opens (children nest inside parents on the logical clock).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_causality(&self) -> Result<(), String> {
        let mut by_round: BTreeMap<u64, BTreeMap<u64, &TraceSpan>> = BTreeMap::new();
        for span in &self.spans {
            if span.close <= span.open {
                return Err(format!(
                    "round {}: span {:#x} ({}) closes at {} before opening at {}",
                    span.round, span.id, span.label, span.close, span.open
                ));
            }
            if let Some(prev) = by_round
                .entry(span.round)
                .or_default()
                .insert(span.id, span)
            {
                return Err(format!(
                    "round {}: span id {:#x} duplicated ({} and {})",
                    span.round, span.id, prev.label, span.label
                ));
            }
        }
        for span in &self.spans {
            if span.parent == 0 {
                continue;
            }
            let Some(parent) = by_round[&span.round].get(&span.parent) else {
                return Err(format!(
                    "round {}: span {:#x} ({}) has missing parent {:#x}",
                    span.round, span.id, span.label, span.parent
                ));
            };
            if parent.close <= span.open {
                return Err(format!(
                    "round {}: parent {:#x} ({}) closes at {} before child {:#x} ({}) opens at {}",
                    span.round,
                    parent.id,
                    parent.label,
                    parent.close,
                    span.id,
                    span.label,
                    span.open
                ));
            }
        }
        Ok(())
    }

    /// Per-round critical paths: for every round, the root-to-leaf chain
    /// maximizing summed work, rounds sorted heaviest first (ties by round
    /// ascending).
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        let mut paths: Vec<CriticalPath> = self
            .rounds()
            .into_iter()
            .map(|round| {
                let spans: Vec<&TraceSpan> =
                    self.spans.iter().filter(|s| s.round == round).collect();
                let mut children: BTreeMap<u64, Vec<&TraceSpan>> = BTreeMap::new();
                let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
                for span in &spans {
                    if span.parent != 0 && ids.contains(&span.parent) {
                        children.entry(span.parent).or_default().push(span);
                    }
                }
                let (work, chain) = spans
                    .iter()
                    .filter(|s| s.parent == 0 || !ids.contains(&s.parent))
                    .map(|root| heaviest_chain(root, &children))
                    .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)))
                    .unwrap_or((0, Vec::new()));
                CriticalPath { round, work, chain }
            })
            .collect();
        paths.sort_by(|a, b| b.work.cmp(&a.work).then_with(|| a.round.cmp(&b.round)));
        paths
    }

    /// Work attributed to each cell across the run, heaviest first (ties by
    /// cell id). Barrier and timeout spans are excluded: their `cell` is a
    /// measured attribution (last completer / first detector), not
    /// deterministic work.
    pub fn slowest_cells(&self) -> Vec<(CellId, u64, usize)> {
        let mut acc: BTreeMap<(u16, u16), (u64, usize)> = BTreeMap::new();
        for span in &self.spans {
            if span.label == "barrier" || span.label == "timeout" {
                continue;
            }
            if let Some(cell) = span.cell {
                let slot = acc.entry((cell.i(), cell.j())).or_default();
                slot.0 += span.work;
                slot.1 += 1;
            }
        }
        let mut rows: Vec<(CellId, u64, usize)> = acc
            .into_iter()
            .map(|((i, j), (work, n))| (CellId::new(i, j), work, n))
            .collect();
        rows.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| (a.0.i(), a.0.j()).cmp(&(b.0.i(), b.0.j())))
        });
        rows
    }

    /// Timed-out rounds and their silent (never-arrived) cells — the cells
    /// every other participant was still waiting on when the deadline
    /// expired, i.e. the last-arriving cells of the round. Deterministic:
    /// derived from the fault plan, not from thread scheduling.
    pub fn timed_out(&self) -> Vec<(u64, Vec<CellId>)> {
        let mut out: BTreeMap<u64, Vec<CellId>> = BTreeMap::new();
        for span in &self.spans {
            if span.label == "timeout" {
                out.entry(span.round).or_default();
            }
            if span.label == "silent" {
                if let Some(cell) = span.cell {
                    out.entry(span.round).or_default().push(cell);
                }
            }
        }
        for cells in out.values_mut() {
            cells.sort_by_key(|c| (c.i(), c.j()));
            cells.dedup();
        }
        out.into_iter().collect()
    }

    /// Renders the analysis report. The default output derives only from
    /// deterministic span fields (ids, work, logical clocks, silent
    /// culprits), so two traces of the same seeded run render identically;
    /// `wall` opts into the measured sections (per-label nanoseconds and
    /// the barrier's last-completer attribution).
    pub fn render(&self, top: usize, round_filter: Option<u64>, wall: bool) -> String {
        let mut out = String::new();
        let rounds = self.rounds();
        let _ = writeln!(
            out,
            "trace: {} spans across {} rounds ({} events)",
            self.spans.len(),
            rounds.len(),
            self.events
        );
        if self.spans.is_empty() {
            out.push_str("(no spans; run with tracing enabled)\n");
            return out;
        }

        let mut paths = self.critical_paths();
        if let Some(round) = round_filter {
            paths.retain(|p| p.round == round);
        }
        let shown = paths.len().min(top.max(1));
        let _ = writeln!(out, "\n== critical path (top {shown} rounds by work)");
        let _ = writeln!(out, "{:>8} {:>8}  chain", "round", "work");
        for path in paths.iter().take(shown) {
            let _ = writeln!(
                out,
                "{:>8} {:>8}  {}",
                path.round,
                path.work,
                path.chain.join(" > ")
            );
        }

        let cells = self.slowest_cells();
        let _ = writeln!(out, "\n== slowest cells (by attributed work)");
        if cells.is_empty() {
            out.push_str("(no cell-attributed spans)\n");
        } else {
            let _ = writeln!(out, "{:>10} {:>8} {:>6}", "cell", "work", "spans");
            for (cell, work, n) in cells.iter().take(top.max(1)) {
                let label = format!("({}, {})", cell.i(), cell.j());
                let _ = writeln!(out, "{label:>10} {work:>8} {n:>6}");
            }
        }

        // The span profile reuses the metrics latency-table renderer: work
        // per label observed into per-label histograms.
        let registry = Registry::new();
        for span in &self.spans {
            registry
                .histogram(&format!("trace_span_{}_work", span.label))
                .observe(span.work);
        }
        out.push_str("\n== span profile (work units via latency tables)\n");
        out.push_str(&report::render_tables(&registry.snapshot()));

        let flame_round = round_filter.or_else(|| paths.first().map(|p| p.round));
        if let Some(round) = flame_round {
            let _ = writeln!(out, "\n== flamegraph: round {round}");
            out.push_str(&self.render_flame(round));
        }

        out.push_str("\n== timed-out rounds\n");
        let timed_out = self.timed_out();
        if timed_out.is_empty() {
            out.push_str("none\n");
        } else {
            for (round, cells) in &timed_out {
                let names: Vec<String> = cells
                    .iter()
                    .map(|c| format!("({}, {})", c.i(), c.j()))
                    .collect();
                let _ = writeln!(
                    out,
                    "round {round}: last-arriving cells: {}",
                    if names.is_empty() {
                        "(none recorded)".to_string()
                    } else {
                        names.join(", ")
                    }
                );
            }
        }

        if wall {
            out.push_str(&self.render_wall());
        }
        out
    }

    /// The indented work flamegraph for one round.
    fn render_flame(&self, round: u64) -> String {
        let spans: Vec<&TraceSpan> = self.spans.iter().filter(|s| s.round == round).collect();
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        let max_work = spans.iter().map(|s| s.work).max().unwrap_or(0).max(1);
        let mut out = String::new();
        // Children in open order, which is also emission order.
        let mut children: BTreeMap<u64, Vec<&TraceSpan>> = BTreeMap::new();
        for span in &spans {
            if span.parent != 0 && ids.contains(&span.parent) {
                children.entry(span.parent).or_default().push(span);
            }
        }
        for root in spans
            .iter()
            .filter(|s| s.parent == 0 || !ids.contains(&s.parent))
        {
            flame_line(root, &children, 0, max_work, &mut out);
        }
        out
    }

    /// The measured-wall-clock sections (`--wall`): nondeterministic by
    /// design, kept out of the default output.
    fn render_wall(&self) -> String {
        let mut out = String::new();
        out.push_str("\n== wall clock (measured; nondeterministic)\n");
        let mut by_label: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
        for span in &self.spans {
            let slot = by_label.entry(span.label.as_str()).or_default();
            slot.0 += span.ns;
            slot.1 += 1;
        }
        let _ = writeln!(out, "{:>10} {:>14} {:>8}", "label", "total_ns", "spans");
        for (label, (ns, n)) in &by_label {
            let _ = writeln!(out, "{label:>10} {ns:>14} {n:>8}");
        }
        let mut completers: Vec<(u64, CellId)> = self
            .spans
            .iter()
            .filter(|s| s.label == "barrier")
            .filter_map(|s| s.cell.map(|c| (s.round, c)))
            .collect();
        completers.sort_by_key(|&(r, _)| r);
        if !completers.is_empty() {
            out.push_str("\n== barrier last completers (measured)\n");
            for (round, cell) in completers {
                let _ = writeln!(out, "round {round}: ({}, {})", cell.i(), cell.j());
            }
        }
        out
    }
}

/// The heaviest root-to-leaf chain below `span`: summed work and labels.
fn heaviest_chain<'a>(
    span: &'a TraceSpan,
    children: &BTreeMap<u64, Vec<&'a TraceSpan>>,
) -> (u64, Vec<String>) {
    let mut best: Option<(u64, Vec<String>)> = None;
    if let Some(kids) = children.get(&span.id) {
        for kid in kids {
            let sub = heaviest_chain(kid, children);
            let better = match &best {
                None => true,
                // Ties break toward earlier open tick, then smaller id,
                // which is the order `kids` already holds (open order).
                Some((w, _)) => sub.0 > *w,
            };
            if better {
                best = Some(sub);
            }
        }
    }
    match best {
        Some((w, mut labels)) => {
            labels.insert(0, span.label.clone());
            (span.work + w, labels)
        }
        None => (span.work, vec![span.label.clone()]),
    }
}

/// One flamegraph line plus its subtree.
fn flame_line(
    span: &TraceSpan,
    children: &BTreeMap<u64, Vec<&TraceSpan>>,
    depth: usize,
    max_work: u64,
    out: &mut String,
) {
    let bar = (span.work as usize * BAR_WIDTH / max_work as usize).min(BAR_WIDTH);
    let label = match span.cell {
        Some(cell) => format!("{} ({}, {})", span.label, cell.i(), cell.j()),
        None => span.label.clone(),
    };
    let _ = writeln!(
        out,
        "{:indent$}{label:<18} {:<bar_w$} {}",
        "",
        "#".repeat(bar.max(if span.work > 0 { 1 } else { 0 })),
        span.work,
        indent = depth * 2,
        bar_w = BAR_WIDTH,
    );
    if let Some(kids) = children.get(&span.id) {
        for kid in kids {
            flame_line(kid, children, depth + 1, max_work, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_builder(tracer: &Tracer, round: u64) -> SpanBuilder {
        let mut b = SpanBuilder::new(round);
        b.open(tracer.span_id(round, SpanKind::Round, 0), SpanKind::Round);
        b.open(tracer.span_id(round, SpanKind::Route, 0), SpanKind::Route);
        b.add_work(5);
        b.leaf(
            tracer.span_id(round, SpanKind::Fault, 0),
            SpanKind::Fault,
            None,
            3,
            111,
        );
        b.close();
        b.leaf(
            tracer.cell_round_id(round, CellId::new(1, 2)),
            SpanKind::Cell,
            Some(CellId::new(1, 2)),
            2,
            0,
        );
        b.add_work(7);
        b
    }

    fn stream(seed: u64, rounds: u64) -> String {
        let tracer = Tracer::new(seed);
        let mut text = String::new();
        for round in 1..=rounds {
            for event in sample_builder(&tracer, round).finish() {
                text.push_str(&event.to_line(round));
                text.push('\n');
            }
        }
        text
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = Tracer::new(42);
        let b = Tracer::new(42);
        let c = Tracer::new(43);
        let cell = CellId::new(3, 4);
        assert_eq!(a.cell_round_id(7, cell), b.cell_round_id(7, cell));
        assert_ne!(a.cell_round_id(7, cell), c.cell_round_id(7, cell));
        assert_ne!(a.cell_round_id(7, cell), a.cell_round_id(8, cell));
        assert_ne!(
            a.cell_round_id(7, cell),
            a.cell_round_id(7, CellId::new(4, 3))
        );
        for round in 0..50 {
            for kind in [SpanKind::Round, SpanKind::Cell, SpanKind::Barrier] {
                assert_ne!(a.span_id(round, kind, 0), 0);
            }
        }
    }

    #[test]
    fn builder_produces_causal_tree() {
        let text = stream(7, 3);
        let trace = Trace::parse(&text).unwrap();
        assert_eq!(trace.spans.len(), 12);
        trace.check_causality().unwrap();
        assert_eq!(trace.rounds(), vec![1, 2, 3]);
    }

    #[test]
    fn builder_auto_closes_open_spans() {
        let tracer = Tracer::new(1);
        let events = sample_builder(&tracer, 4).finish();
        for event in &events {
            if let Event::Span { open, close, .. } = event {
                assert!(close > open, "{event:?}");
            }
        }
        // Round root opened first, closed last.
        let (first_open, last_close) = match (&events[0], &events[0]) {
            (Event::Span { open, .. }, Event::Span { close, .. }) => (*open, *close),
            _ => unreachable!(),
        };
        assert_eq!(first_open, 1);
        for event in &events[1..] {
            if let Event::Span { close, .. } = event {
                assert!(last_close > *close);
            }
        }
    }

    #[test]
    fn critical_path_picks_heaviest_chain() {
        let trace = Trace::parse(&stream(7, 2)).unwrap();
        let paths = trace.critical_paths();
        assert_eq!(paths.len(), 2);
        // round(7) > route(5) > fault(3) = 15 beats round(7) > cell(2) = 9.
        assert_eq!(paths[0].work, 15);
        assert_eq!(paths[0].chain, vec!["round", "route", "fault"]);
    }

    #[test]
    fn slowest_cells_exclude_measured_attributions() {
        let tracer = Tracer::new(9);
        let mut b = sample_builder(&tracer, 1);
        b.leaf(
            tracer.span_id(1, SpanKind::Barrier, 0),
            SpanKind::Barrier,
            Some(CellId::new(9, 9)),
            8,
            999,
        );
        let mut text = String::new();
        for event in b.finish() {
            text.push_str(&event.to_line(1));
            text.push('\n');
        }
        let trace = Trace::parse(&text).unwrap();
        let cells = trace.slowest_cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, CellId::new(1, 2));
        assert_eq!(cells[0].1, 2);
    }

    #[test]
    fn timed_out_lists_silent_cells() {
        let tracer = Tracer::new(11);
        let round = 6;
        let mut b = SpanBuilder::new(round);
        b.open(
            tracer.span_id(round, SpanKind::Timeout, 0),
            SpanKind::Timeout,
        );
        b.set_cell(CellId::new(0, 0));
        for cell in [CellId::new(2, 1), CellId::new(1, 1)] {
            b.leaf(
                tracer.cell_round_id(round, cell),
                SpanKind::Silent,
                Some(cell),
                0,
                0,
            );
        }
        let mut text = String::new();
        for event in b.finish() {
            text.push_str(&event.to_line(round));
            text.push('\n');
        }
        let trace = Trace::parse(&text).unwrap();
        trace.check_causality().unwrap();
        let timed_out = trace.timed_out();
        assert_eq!(timed_out.len(), 1);
        assert_eq!(timed_out[0].0, round);
        assert_eq!(timed_out[0].1, vec![CellId::new(1, 1), CellId::new(2, 1)]);
        let rendered = trace.render(5, None, false);
        assert!(rendered.contains("== timed-out rounds"));
        assert!(rendered.contains("round 6: last-arriving cells: (1, 1), (2, 1)"));
    }

    #[test]
    fn render_is_deterministic_and_skips_wall_by_default() {
        let a = Trace::parse(&stream(5, 4)).unwrap().render(3, None, false);
        let b = Trace::parse(&stream(5, 4)).unwrap().render(3, None, false);
        assert_eq!(a, b);
        assert!(a.contains("== critical path"));
        assert!(a.contains("== slowest cells"));
        assert!(a.contains("== span profile"));
        assert!(a.contains("== flamegraph"));
        assert!(!a.contains("wall clock"));
        let wall = Trace::parse(&stream(5, 4)).unwrap().render(3, None, true);
        assert!(wall.contains("== wall clock"));
    }

    #[test]
    fn render_ignores_ns_differences() {
        // Two streams identical except for measured ns must render
        // identically by default — the CI double-run diff contract.
        let tracer = Tracer::new(3);
        let build = |ns: u64| {
            let mut b = SpanBuilder::new(1);
            b.open(tracer.span_id(1, SpanKind::Round, 0), SpanKind::Round);
            b.add_work(4);
            b.add_ns(ns);
            let mut text = String::new();
            for event in b.finish() {
                text.push_str(&event.to_line(1));
                text.push('\n');
            }
            text
        };
        let fast = Trace::parse(&build(10)).unwrap();
        let slow = Trace::parse(&build(987_654_321)).unwrap();
        assert_eq!(fast.render(5, None, false), slow.render(5, None, false));
        assert_ne!(fast.render(5, None, true), slow.render(5, None, true));
    }

    #[test]
    fn parse_reports_offending_line() {
        let err = Trace::parse("{\"v\":1,\"round\":1,\"kind\":\"consume\",\"entity\":1}\nnope\n")
            .unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn causality_catches_broken_trees() {
        let orphan = Event::Span {
            id: 5,
            parent: 77,
            label: "cell".into(),
            cell: None,
            work: 0,
            open: 1,
            close: 2,
            ns: 0,
        }
        .to_line(1);
        let trace = Trace::parse(&orphan).unwrap();
        let err = trace.check_causality().unwrap_err();
        assert!(err.contains("missing parent"), "{err}");

        let dup = format!(
            "{}\n{}\n",
            Event::Span {
                id: 5,
                parent: 0,
                label: "round".into(),
                cell: None,
                work: 0,
                open: 1,
                close: 4,
                ns: 0,
            }
            .to_line(2),
            Event::Span {
                id: 5,
                parent: 0,
                label: "route".into(),
                cell: None,
                work: 0,
                open: 2,
                close: 3,
                ns: 0,
            }
            .to_line(2)
        );
        let err = Trace::parse(&dup).unwrap().check_causality().unwrap_err();
        assert!(err.contains("duplicated"), "{err}");
    }
}
