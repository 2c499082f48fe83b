//! The schema-versioned telemetry event model.
//!
//! One [`Event`] vocabulary unifies everything the workspace's runtimes can
//! observe: the simulation trace (`insert`/`transfer`/`consume`/`grant`/
//! `block`), failure-model activity (`fail`/`recover`/`corrupt`), monitor
//! verdicts (`violation`), net-runtime faults (`timeout`), supervisor
//! decisions (`supervisor`), and per-round rollups (`round_summary`).
//!
//! Every serialized line is a single JSON object with a fixed key order:
//!
//! ```text
//! {"v":1,"round":12,"kind":"transfer","entity":3,"from":[1,2],"to":[1,3]}
//! ```
//!
//! `v` is [`SCHEMA_VERSION`]; readers reject lines from a different schema
//! generation instead of misinterpreting them. Cells serialize as `[i,j]`
//! pairs and entities as their raw `u64` id, so the stream is
//! runtime-agnostic (the shared-variable sim and the message-passing net
//! runtime produce identical records for identical behavior).

use std::fmt::Write as _;

use cellflow_grid::CellId;

use crate::json::{escape_into, Json};

/// The telemetry stream schema generation. Bump when a kind's field set
/// changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// One observable happening, without its round tag (the round travels next
/// to the event, in the line or the flight-recorder ring).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A source created an entity.
    Insert {
        /// Source cell.
        cell: CellId,
        /// The new entity's raw id.
        entity: u64,
    },
    /// An entity crossed between cells.
    Transfer {
        /// The entity's raw id.
        entity: u64,
        /// Cell it left.
        from: CellId,
        /// Cell it entered.
        to: CellId,
    },
    /// The target consumed an entity.
    Consume {
        /// The entity's raw id.
        entity: u64,
    },
    /// A cell granted its token holder permission to move.
    Grant {
        /// The granting cell.
        granter: CellId,
        /// The cell allowed to move toward it.
        grantee: CellId,
    },
    /// A cell withheld its signal.
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
    /// A cell's state was corrupted by a fault injector.
    Corrupt {
        /// The corrupted cell.
        cell: CellId,
    },
    /// An online monitor fired.
    Violation {
        /// The monitor's name.
        monitor: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A round deadline expired in the message-passing runtime.
    Timeout {
        /// What timed out (e.g. the barrier generation or stalled cell).
        detail: String,
    },
    /// The supervisor intervened (restart, plan rewrite).
    Supervisor {
        /// What the supervisor did.
        action: String,
        /// Human-readable detail.
        detail: String,
    },
    /// One round's protocol-event rollup.
    RoundSummary {
        /// Entities consumed this round.
        consumed: u64,
        /// Entities inserted this round.
        inserted: u64,
        /// Blocked signals this round.
        blocked: u64,
        /// Cells that moved an entity this round.
        moved: u64,
    },
    /// The first line of a flight-recorder dump: what triggered it and how
    /// many rounds of history follow.
    FlightHeader {
        /// The kind of the triggering event (`violation` or `timeout`).
        trigger: String,
        /// Rounds of history in the dump.
        rounds: u64,
    },
    /// One closed span of the causal trace tree (see [`crate::trace`]).
    ///
    /// Only emitted when tracing is enabled, so default-off streams stay
    /// byte-identical. `work` and the `open`/`close` logical clock are
    /// deterministic per seed; `ns` is measured wall time and the only
    /// nondeterministic field (alongside the barrier span's attributed
    /// `cell`).
    Span {
        /// Seed-derived span id (never 0; 0 is the "no parent" sentinel).
        id: u64,
        /// Parent span id, or 0 for a root span.
        parent: u64,
        /// Span label (`round`, `route`, `cell`, `barrier`, ...).
        label: String,
        /// The cell this span is attributed to, if any.
        cell: Option<CellId>,
        /// Deterministic logical work units (cells touched, waits, ...).
        work: u64,
        /// Logical open tick (per-round sequence, deterministic).
        open: u64,
        /// Logical close tick (always > `open`).
        close: u64,
        /// Measured wall nanoseconds (0 when unmeasured; nondeterministic).
        ns: u64,
    },
}

impl Event {
    /// The event's `kind` tag as serialized.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Insert { .. } => "insert",
            Event::Transfer { .. } => "transfer",
            Event::Consume { .. } => "consume",
            Event::Grant { .. } => "grant",
            Event::Block { .. } => "block",
            Event::Fail { .. } => "fail",
            Event::Recover { .. } => "recover",
            Event::Corrupt { .. } => "corrupt",
            Event::Violation { .. } => "violation",
            Event::Timeout { .. } => "timeout",
            Event::Supervisor { .. } => "supervisor",
            Event::RoundSummary { .. } => "round_summary",
            Event::FlightHeader { .. } => "flight_header",
            Event::Span { .. } => "span",
        }
    }

    /// `true` for the kinds that trip the flight recorder's auto-dump
    /// (monitor violations and round timeouts).
    pub fn is_trigger(&self) -> bool {
        matches!(self, Event::Violation { .. } | Event::Timeout { .. })
    }

    /// Serializes the event as one JSONL line (no trailing newline), tagged
    /// with `round`.
    pub fn to_line(&self, round: u64) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "{{\"v\":{SCHEMA_VERSION},\"round\":{round},\"kind\":\""
        );
        out.push_str(self.kind());
        out.push('"');
        match self {
            Event::Insert { cell, entity } => {
                push_cell(&mut out, "cell", *cell);
                let _ = write!(out, ",\"entity\":{entity}");
            }
            Event::Transfer { entity, from, to } => {
                let _ = write!(out, ",\"entity\":{entity}");
                push_cell(&mut out, "from", *from);
                push_cell(&mut out, "to", *to);
            }
            Event::Consume { entity } => {
                let _ = write!(out, ",\"entity\":{entity}");
            }
            Event::Grant { granter, grantee } => {
                push_cell(&mut out, "granter", *granter);
                push_cell(&mut out, "grantee", *grantee);
            }
            Event::Block { blocker, blocked } => {
                push_cell(&mut out, "blocker", *blocker);
                push_cell(&mut out, "blocked", *blocked);
            }
            Event::Fail { cell } | Event::Recover { cell } | Event::Corrupt { cell } => {
                push_cell(&mut out, "cell", *cell);
            }
            Event::Violation { monitor, detail } => {
                push_str(&mut out, "monitor", monitor);
                push_str(&mut out, "detail", detail);
            }
            Event::Timeout { detail } => {
                push_str(&mut out, "detail", detail);
            }
            Event::Supervisor { action, detail } => {
                push_str(&mut out, "action", action);
                push_str(&mut out, "detail", detail);
            }
            Event::RoundSummary {
                consumed,
                inserted,
                blocked,
                moved,
            } => {
                let _ = write!(
                    out,
                    ",\"consumed\":{consumed},\"inserted\":{inserted},\"blocked\":{blocked},\"moved\":{moved}"
                );
            }
            Event::FlightHeader { trigger, rounds } => {
                push_str(&mut out, "trigger", trigger);
                let _ = write!(out, ",\"rounds\":{rounds}");
            }
            Event::Span {
                id,
                parent,
                label,
                cell,
                work,
                open,
                close,
                ns,
            } => {
                let _ = write!(out, ",\"id\":{id},\"parent\":{parent}");
                push_str(&mut out, "label", label);
                if let Some(cell) = cell {
                    push_cell(&mut out, "cell", *cell);
                }
                let _ = write!(
                    out,
                    ",\"work\":{work},\"open\":{open},\"close\":{close},\"ns\":{ns}"
                );
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line back into `(round, Event)`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema problem: malformed JSON,
    /// wrong schema version, unknown kind, or missing/mistyped fields.
    pub fn parse_line(line: &str) -> Result<(u64, Event), String> {
        let value = Json::parse(line)?;
        let v = value
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("missing schema version `v`")?;
        if v != SCHEMA_VERSION {
            return Err(format!("schema version {v}, expected {SCHEMA_VERSION}"));
        }
        let round = value
            .get("round")
            .and_then(Json::as_u64)
            .ok_or("missing `round`")?;
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing `kind`")?;
        let event = match kind {
            "insert" => Event::Insert {
                cell: cell_field(&value, "cell")?,
                entity: u64_field(&value, "entity")?,
            },
            "transfer" => Event::Transfer {
                entity: u64_field(&value, "entity")?,
                from: cell_field(&value, "from")?,
                to: cell_field(&value, "to")?,
            },
            "consume" => Event::Consume {
                entity: u64_field(&value, "entity")?,
            },
            "grant" => Event::Grant {
                granter: cell_field(&value, "granter")?,
                grantee: cell_field(&value, "grantee")?,
            },
            "block" => Event::Block {
                blocker: cell_field(&value, "blocker")?,
                blocked: cell_field(&value, "blocked")?,
            },
            "fail" => Event::Fail {
                cell: cell_field(&value, "cell")?,
            },
            "recover" => Event::Recover {
                cell: cell_field(&value, "cell")?,
            },
            "corrupt" => Event::Corrupt {
                cell: cell_field(&value, "cell")?,
            },
            "violation" => Event::Violation {
                monitor: str_field(&value, "monitor")?,
                detail: str_field(&value, "detail")?,
            },
            "timeout" => Event::Timeout {
                detail: str_field(&value, "detail")?,
            },
            "supervisor" => Event::Supervisor {
                action: str_field(&value, "action")?,
                detail: str_field(&value, "detail")?,
            },
            "round_summary" => Event::RoundSummary {
                consumed: u64_field(&value, "consumed")?,
                inserted: u64_field(&value, "inserted")?,
                blocked: u64_field(&value, "blocked")?,
                moved: u64_field(&value, "moved")?,
            },
            "flight_header" => Event::FlightHeader {
                trigger: str_field(&value, "trigger")?,
                rounds: u64_field(&value, "rounds")?,
            },
            "span" => {
                let cell = match value.get("cell") {
                    Some(_) => Some(cell_field(&value, "cell")?),
                    None => None,
                };
                let open = u64_field(&value, "open")?;
                let close = u64_field(&value, "close")?;
                if close <= open {
                    return Err(format!(
                        "span `close` ({close}) must exceed `open` ({open})"
                    ));
                }
                let id = u64_field(&value, "id")?;
                if id == 0 {
                    return Err("span `id` must be nonzero".to_string());
                }
                Event::Span {
                    id,
                    parent: u64_field(&value, "parent")?,
                    label: str_field(&value, "label")?,
                    cell,
                    work: u64_field(&value, "work")?,
                    open,
                    close,
                    ns: u64_field(&value, "ns")?,
                }
            }
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok((round, event))
    }
}

fn push_cell(out: &mut String, key: &str, cell: CellId) {
    let _ = write!(out, ",\"{key}\":[{},{}]", cell.i(), cell.j());
}

fn push_str(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":");
    escape_into(value, out);
}

fn u64_field(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or mistyped `{key}`"))
}

fn str_field(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or mistyped `{key}`"))
}

fn cell_field(value: &Json, key: &str) -> Result<CellId, String> {
    let arr = value
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or mistyped `{key}`"))?;
    if arr.len() != 2 {
        return Err(format!("`{key}` must be a [i,j] pair"));
    }
    let i = arr[0]
        .as_u64()
        .and_then(|n| u16::try_from(n).ok())
        .ok_or_else(|| format!("`{key}[0]` out of u16 range"))?;
    let j = arr[1]
        .as_u64()
        .and_then(|n| u16::try_from(n).ok())
        .ok_or_else(|| format!("`{key}[1]` out of u16 range"))?;
    Ok(CellId::new(i, j))
}

/// Statistics from validating a JSONL stream with [`validate_stream`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total event lines.
    pub events: usize,
    /// Events per kind, sorted by kind name.
    pub by_kind: Vec<(String, usize)>,
    /// Lowest round tag seen.
    pub first_round: u64,
    /// Highest round tag seen.
    pub last_round: u64,
    /// Violation events in the stream.
    pub violations: usize,
    /// Timeout events in the stream.
    pub timeouts: usize,
}

/// Validates that every non-empty line of `text` is a schema-conformant
/// event and that round tags never go backwards. Returns aggregate stats.
///
/// # Errors
///
/// Returns `(line number, problem)` for the first offending line (1-based).
pub fn validate_stream(text: &str) -> Result<StreamStats, (usize, String)> {
    let mut stats = StreamStats {
        first_round: u64::MAX,
        ..StreamStats::default()
    };
    let mut counts = std::collections::BTreeMap::new();
    let mut last_round = 0u64;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (round, event) = Event::parse_line(line).map_err(|e| (idx + 1, e))?;
        // A flight header is tagged with the *trigger* round; the history
        // that follows restarts earlier, so it neither obeys nor advances
        // the monotonicity baseline.
        if matches!(event, Event::FlightHeader { .. }) {
            last_round = 0;
        } else {
            if stats.events > 0 && round < last_round {
                return Err((
                    idx + 1,
                    format!("round went backwards: {round} after {last_round}"),
                ));
            }
            last_round = round;
        }
        stats.events += 1;
        stats.first_round = stats.first_round.min(round);
        stats.last_round = stats.last_round.max(round);
        *counts.entry(event.kind().to_string()).or_insert(0usize) += 1;
        match event {
            Event::Violation { .. } => stats.violations += 1,
            Event::Timeout { .. } => stats.timeouts += 1,
            _ => {}
        }
    }
    if stats.events == 0 {
        stats.first_round = 0;
    }
    stats.by_kind = counts.into_iter().collect();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<Event> {
        vec![
            Event::Insert {
                cell: CellId::new(1, 0),
                entity: 7,
            },
            Event::Transfer {
                entity: 7,
                from: CellId::new(1, 0),
                to: CellId::new(1, 1),
            },
            Event::Consume { entity: 7 },
            Event::Grant {
                granter: CellId::new(2, 2),
                grantee: CellId::new(2, 1),
            },
            Event::Block {
                blocker: CellId::new(3, 3),
                blocked: CellId::new(3, 2),
            },
            Event::Fail {
                cell: CellId::new(4, 4),
            },
            Event::Recover {
                cell: CellId::new(4, 4),
            },
            Event::Corrupt {
                cell: CellId::new(5, 5),
            },
            Event::Violation {
                monitor: "safety".into(),
                detail: "two entities in cell \"(1,1)\"".into(),
            },
            Event::Timeout {
                detail: "barrier generation 12".into(),
            },
            Event::Supervisor {
                action: "restart".into(),
                detail: "cell (2,3) after crash".into(),
            },
            Event::RoundSummary {
                consumed: 1,
                inserted: 2,
                blocked: 0,
                moved: 5,
            },
            Event::FlightHeader {
                trigger: "violation".into(),
                rounds: 16,
            },
            Event::Span {
                id: 0x1234_5678_9abc_def0,
                parent: 0,
                label: "round".into(),
                cell: None,
                work: 9,
                open: 1,
                close: 10,
                ns: 1234,
            },
            Event::Span {
                id: 0x0fed_cba9_8765_4321,
                parent: 0x1234_5678_9abc_def0,
                label: "cell".into(),
                cell: Some(CellId::new(2, 3)),
                work: 1,
                open: 2,
                close: 3,
                ns: 0,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for (k, event) in all_events().into_iter().enumerate() {
            let round = 10 + k as u64;
            let line = event.to_line(round);
            let (r, parsed) = Event::parse_line(&line)
                .unwrap_or_else(|e| panic!("kind {} failed to parse: {e}\n{line}", event.kind()));
            assert_eq!((r, &parsed), (round, &event), "line: {line}");
        }
    }

    #[test]
    fn lines_have_fixed_prefix_and_kind() {
        let line = Event::Consume { entity: 3 }.to_line(5);
        assert_eq!(line, r#"{"v":1,"round":5,"kind":"consume","entity":3}"#);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let err =
            Event::parse_line(r#"{"v":2,"round":0,"kind":"consume","entity":1}"#).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn unknown_kind_and_bad_fields_are_rejected() {
        assert!(Event::parse_line(r#"{"v":1,"round":0,"kind":"warp"}"#)
            .unwrap_err()
            .contains("unknown event kind"));
        assert!(
            Event::parse_line(r#"{"v":1,"round":0,"kind":"insert","cell":[1],"entity":0}"#)
                .unwrap_err()
                .contains("pair")
        );
        assert!(Event::parse_line(
            r#"{"v":1,"round":0,"kind":"insert","cell":[1,99999],"entity":0}"#
        )
        .unwrap_err()
        .contains("u16"));
        assert!(Event::parse_line(r#"{"v":1,"kind":"consume","entity":1}"#)
            .unwrap_err()
            .contains("round"));
    }

    #[test]
    fn span_invariants_are_rejected() {
        // close must be strictly after open.
        let err = Event::parse_line(
            r#"{"v":1,"round":3,"kind":"span","id":7,"parent":0,"label":"round","work":1,"open":5,"close":5,"ns":0}"#,
        )
        .unwrap_err();
        assert!(err.contains("close"), "{err}");
        // id 0 is the "no parent" sentinel, never a real span.
        let err = Event::parse_line(
            r#"{"v":1,"round":3,"kind":"span","id":0,"parent":0,"label":"round","work":1,"open":1,"close":2,"ns":0}"#,
        )
        .unwrap_err();
        assert!(err.contains("nonzero"), "{err}");
    }

    #[test]
    fn span_cell_field_is_optional() {
        let line = Event::Span {
            id: 1,
            parent: 0,
            label: "round".into(),
            cell: None,
            work: 0,
            open: 1,
            close: 2,
            ns: 0,
        }
        .to_line(1);
        assert!(!line.contains("cell"), "{line}");
        assert_eq!(
            line,
            r#"{"v":1,"round":1,"kind":"span","id":1,"parent":0,"label":"round","work":0,"open":1,"close":2,"ns":0}"#
        );
    }

    #[test]
    fn triggers_are_violation_and_timeout() {
        for event in all_events() {
            let expected = matches!(event.kind(), "violation" | "timeout");
            assert_eq!(event.is_trigger(), expected, "{}", event.kind());
        }
    }

    #[test]
    fn validate_stream_counts_kinds() {
        let mut text = String::new();
        for (k, event) in all_events().into_iter().enumerate() {
            text.push_str(&event.to_line(k as u64));
            text.push('\n');
        }
        text.push('\n'); // blank lines are fine
        let stats = validate_stream(&text).unwrap();
        assert_eq!(stats.events, 15);
        assert_eq!(stats.violations, 1);
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.first_round, 0);
        assert_eq!(stats.last_round, 14);
        assert_eq!(
            stats.by_kind.iter().map(|(_, n)| n).sum::<usize>(),
            stats.events
        );
    }

    #[test]
    fn validate_stream_rejects_regressing_rounds() {
        let mut text = Event::Consume { entity: 0 }.to_line(5);
        text.push('\n');
        text.push_str(&Event::Consume { entity: 1 }.to_line(4));
        let (line, err) = validate_stream(&text).unwrap_err();
        assert_eq!(line, 2);
        assert!(err.contains("backwards"));
    }

    #[test]
    fn validate_stream_reports_offending_line() {
        let text = "{\"v\":1,\"round\":0,\"kind\":\"consume\",\"entity\":0}\nnot json\n";
        assert_eq!(validate_stream(text).unwrap_err().0, 2);
        assert_eq!(validate_stream("").unwrap(), StreamStats::default());
    }
}
