//! Human-readable renderings of telemetry data for the `cellflow metrics`
//! and `cellflow inspect` subcommands: per-phase latency tables from a
//! registry snapshot, and a round timeline from a recorded JSONL stream.

use std::fmt::Write as _;

use crate::event::{validate_stream, Event};
use crate::registry::MetricSnapshot;

fn bucket_quantile(buckets: &[(u64, u64)], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for &(upper, count) in buckets {
        seen += count;
        if seen >= rank {
            return upper;
        }
    }
    buckets.last().map(|&(upper, _)| upper).unwrap_or(0)
}

/// Renders every histogram in `snapshot` as a fixed-width latency table
/// (count, mean, p50/p90/p99 bucket upper bounds, max bucket), and every
/// counter/gauge as a name/value list below it. Deterministic: rows follow
/// snapshot (name) order.
pub fn render_tables(snapshot: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let histograms: Vec<_> = snapshot
        .iter()
        .filter_map(|m| match m {
            MetricSnapshot::Histogram {
                name,
                count,
                sum,
                buckets,
            } => Some((name, *count, *sum, buckets)),
            _ => None,
        })
        .collect();
    if !histograms.is_empty() {
        let width = histograms
            .iter()
            .map(|(n, ..)| n.len())
            .max()
            .unwrap()
            .max(9);
        let _ = writeln!(
            out,
            "{:<width$}  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}  {:>12}",
            "histogram", "count", "mean", "p50", "p90", "p99", "max"
        );
        for (name, count, sum, buckets) in &histograms {
            let mean = if *count == 0 { 0 } else { sum / count };
            let _ = writeln!(
                out,
                "{name:<width$}  {count:>10}  {mean:>12}  {p50:>12}  {p90:>12}  {p99:>12}  {max:>12}",
                p50 = bucket_quantile(buckets, *count, 0.50),
                p90 = bucket_quantile(buckets, *count, 0.90),
                p99 = bucket_quantile(buckets, *count, 0.99),
                max = buckets.last().map(|&(upper, _)| upper).unwrap_or(0),
            );
        }
    }
    let scalars: Vec<_> = snapshot
        .iter()
        .filter_map(|m| match m {
            MetricSnapshot::Counter { name, value } => Some((name, value.to_string())),
            MetricSnapshot::Gauge { name, value } => Some((name, value.to_string())),
            MetricSnapshot::Histogram { .. } => None,
        })
        .collect();
    if !scalars.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let width = scalars.iter().map(|(n, _)| n.len()).max().unwrap().max(7);
        let _ = writeln!(out, "{:<width$}  {:>12}", "metric", "value");
        for (name, value) in scalars {
            let _ = writeln!(out, "{name:<width$}  {value:>12}");
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[derive(Default)]
struct RoundRow {
    inserted: u64,
    transferred: u64,
    consumed: u64,
    blocked: u64,
    failed: u64,
    recovered: u64,
    corrupted: u64,
    notes: Vec<String>,
}

/// Renders a recorded JSONL stream as a per-round timeline. Each round with
/// activity gets one row of event counts; violations, timeouts, and
/// supervisor actions are called out by name in the final column. At most
/// `max_rows` round rows are shown (0 = unlimited); elided rows are
/// summarized so nothing disappears silently.
///
/// # Errors
///
/// Returns `(line number, problem)` if the stream fails schema validation.
pub fn render_timeline(text: &str, max_rows: usize) -> Result<String, (usize, String)> {
    let stats = validate_stream(text)?;
    let mut rounds: Vec<(u64, RoundRow)> = Vec::new();
    let mut header: Option<(u64, String, u64)> = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        // validate_stream already proved every line parses.
        let (round, event) = Event::parse_line(line).map_err(|e| (0, e))?;
        if let Event::FlightHeader { trigger, rounds } = &event {
            header = Some((round, trigger.clone(), *rounds));
            continue;
        }
        let row = match rounds.last_mut() {
            Some((r, row)) if *r == round => row,
            _ => {
                rounds.push((round, RoundRow::default()));
                &mut rounds.last_mut().unwrap().1
            }
        };
        match event {
            Event::Insert { .. } => row.inserted += 1,
            Event::Transfer { .. } => row.transferred += 1,
            Event::Consume { .. } => row.consumed += 1,
            Event::Block { .. } => row.blocked += 1,
            Event::Fail { .. } => row.failed += 1,
            Event::Recover { .. } => row.recovered += 1,
            Event::Corrupt { .. } => row.corrupted += 1,
            Event::Violation { monitor, .. } => row.notes.push(format!("VIOLATION[{monitor}]")),
            Event::Timeout { .. } => row.notes.push("TIMEOUT".to_string()),
            Event::Supervisor { action, .. } => row.notes.push(format!("supervisor:{action}")),
            Event::RoundSummary {
                consumed,
                inserted,
                blocked,
                ..
            } => {
                // Rollup lines substitute for per-event records when the
                // producer didn't stream individual events.
                row.consumed = row.consumed.max(consumed);
                row.inserted = row.inserted.max(inserted);
                row.blocked = row.blocked.max(blocked);
            }
            Event::Grant { .. } | Event::FlightHeader { .. } | Event::Span { .. } => {}
        }
    }

    let mut out = String::new();
    if let Some((round, trigger, kept)) = header {
        let _ = writeln!(
            out,
            "flight dump: trigger `{trigger}` at round {round}, {kept} round(s) of history"
        );
    }
    let _ = writeln!(
        out,
        "rounds {}..={}  events {}  violations {}  timeouts {}",
        stats.first_round, stats.last_round, stats.events, stats.violations, stats.timeouts
    );
    let _ = writeln!(
        out,
        "{:>8}  {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}  notes",
        "round", "ins", "mov", "con", "blk", "fail", "rec", "cor"
    );
    let total = rounds.len();
    let shown = if max_rows == 0 {
        total
    } else {
        max_rows.min(total)
    };
    let skip = total - shown;
    if skip > 0 {
        let _ = writeln!(out, "{:>8}  … {skip} earlier round(s) elided …", "");
    }
    for (round, row) in rounds.iter().skip(skip) {
        let _ = writeln!(
            out,
            "{round:>8}  {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>4}  {}",
            row.inserted,
            row.transferred,
            row.consumed,
            row.blocked,
            row.failed,
            row.recovered,
            row.corrupted,
            row.notes.join(" ")
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use cellflow_grid::CellId;

    #[test]
    fn tables_render_histograms_and_scalars() {
        let reg = Registry::new();
        reg.counter("rounds_total").add(5);
        reg.gauge("depth").set(-1);
        let h = reg.histogram("round_ns");
        for v in [10, 20, 30, 1000] {
            h.observe(v);
        }
        let text = render_tables(&reg.snapshot());
        assert!(text.contains("histogram"));
        assert!(text.contains("round_ns"));
        assert!(text.contains("rounds_total"));
        assert!(text.contains("depth"));
        let mean_row: &str = text.lines().find(|l| l.starts_with("round_ns")).unwrap();
        assert!(mean_row.contains("265"), "mean of 1060/4: {mean_row}");
    }

    #[test]
    fn empty_snapshot_says_so() {
        assert!(render_tables(&[]).contains("no metrics"));
    }

    #[test]
    fn timeline_aggregates_rounds_and_flags_triggers() {
        let mut text = String::new();
        text.push_str(
            &Event::Insert {
                cell: CellId::new(0, 0),
                entity: 1,
            }
            .to_line(3),
        );
        text.push('\n');
        text.push_str(&Event::Consume { entity: 1 }.to_line(4));
        text.push('\n');
        text.push_str(
            &Event::Violation {
                monitor: "safety".into(),
                detail: "two entities".into(),
            }
            .to_line(4),
        );
        let rendered = render_timeline(&text, 0).unwrap();
        assert!(rendered.contains("rounds 3..=4"));
        assert!(rendered.contains("VIOLATION[safety]"));
    }

    #[test]
    fn timeline_elides_beyond_max_rows() {
        let mut text = String::new();
        for round in 0..10 {
            text.push_str(&Event::Consume { entity: round }.to_line(round));
            text.push('\n');
        }
        let rendered = render_timeline(&text, 3).unwrap();
        assert!(rendered.contains("7 earlier round(s) elided"));
        assert!(rendered.contains("\n       9  "));
        assert!(!rendered.contains("\n       2  "));
    }

    #[test]
    fn timeline_reports_flight_header() {
        let mut fr = crate::recorder::FlightRecorder::new(4);
        fr.push(
            7,
            Event::Fail {
                cell: CellId::new(1, 1),
            },
        );
        fr.push(
            8,
            Event::Violation {
                monitor: "conservation".into(),
                detail: "x".into(),
            },
        );
        let dump = fr.render_dump("violation", 8);
        let rendered = render_timeline(&dump, 0).unwrap();
        assert!(rendered.contains("flight dump: trigger `violation` at round 8"));
        assert!(rendered.contains("2 round(s) of history"));
    }

    #[test]
    fn timeline_rejects_invalid_streams() {
        assert!(render_timeline("garbage\n", 0).is_err());
    }
}
