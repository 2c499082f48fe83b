//! Property-based round-trips for the telemetry event schema: every
//! [`Event`] must survive `to_line` → `parse_line` bit-exactly, and any
//! monotone sequence of lines must pass the stream validator with the
//! census the generator knows it produced.
//!
//! The telemetry JSON codec is hand-rolled, so this suite needs no
//! serialization dependency and runs in the hermetic tier-1 build.

use cellular_flows::grid::CellId;
use cellular_flows::telemetry::{validate_stream, Event};
use proptest::prelude::*;

fn cell_strategy() -> impl Strategy<Value = CellId> {
    (0u16..32, 0u16..32).prop_map(|(i, j)| CellId::new(i, j))
}

/// Detail strings exercising JSON escaping: quotes, backslashes, newlines,
/// control characters, and non-ASCII.
fn detail_strategy() -> impl Strategy<Value = String> {
    const DETAILS: &[&str] = &[
        "",
        "plain detail",
        "quote \" backslash \\ done",
        "line\nbreak\tand\rcontrols",
        "nul \u{0} and unit \u{1f} separators",
        "non-ascii: ü ∆ 安",
    ];
    proptest::sample::select(DETAILS).prop_map(str::to_string)
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (cell_strategy(), any::<u64>()).prop_map(|(cell, entity)| Event::Insert { cell, entity }),
        (any::<u64>(), cell_strategy(), cell_strategy())
            .prop_map(|(entity, from, to)| Event::Transfer { entity, from, to }),
        any::<u64>().prop_map(|entity| Event::Consume { entity }),
        (cell_strategy(), cell_strategy())
            .prop_map(|(granter, grantee)| Event::Grant { granter, grantee }),
        (cell_strategy(), cell_strategy())
            .prop_map(|(blocker, blocked)| Event::Block { blocker, blocked }),
        cell_strategy().prop_map(|cell| Event::Fail { cell }),
        cell_strategy().prop_map(|cell| Event::Recover { cell }),
        cell_strategy().prop_map(|cell| Event::Corrupt { cell }),
        (detail_strategy(), detail_strategy())
            .prop_map(|(monitor, detail)| Event::Violation { monitor, detail }),
        detail_strategy().prop_map(|detail| Event::Timeout { detail }),
        (detail_strategy(), detail_strategy())
            .prop_map(|(action, detail)| Event::Supervisor { action, detail }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(consumed, inserted, blocked, moved)| Event::RoundSummary {
                consumed,
                inserted,
                blocked,
                moved,
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse_line(to_line(e))` is the identity on `(round, event)`.
    #[test]
    fn event_lines_roundtrip(round in any::<u64>(), event in event_strategy()) {
        let line = event.to_line(round);
        let (back_round, back) = Event::parse_line(&line)
            .unwrap_or_else(|e| panic!("own line rejected: {e}\n{line}"));
        prop_assert_eq!(back_round, round);
        prop_assert_eq!(back, event);
    }

    /// A generated stream with non-decreasing rounds validates, and the
    /// validator's census matches what the generator emitted.
    #[test]
    fn generated_streams_validate(
        deltas in proptest::collection::vec((0u64..3, event_strategy()), 1..40),
    ) {
        let mut text = String::new();
        let mut round = 0u64;
        let mut violations = 0usize;
        let mut timeouts = 0usize;
        for (delta, event) in &deltas {
            round += delta;
            match event {
                Event::Violation { .. } => violations += 1,
                Event::Timeout { .. } => timeouts += 1,
                _ => {}
            }
            text.push_str(&event.to_line(round));
            text.push('\n');
        }
        let stats = validate_stream(&text)
            .unwrap_or_else(|(line, e)| panic!("line {line}: {e}"));
        prop_assert_eq!(stats.events, deltas.len());
        prop_assert_eq!(stats.last_round, round);
        prop_assert_eq!(stats.violations, violations);
        prop_assert_eq!(stats.timeouts, timeouts);
    }

    /// Round regressions are rejected with the offending line number.
    #[test]
    fn non_monotone_streams_are_rejected(
        event in event_strategy(),
        high in 10u64..100,
        low in 0u64..10,
    ) {
        let text = format!("{}\n{}\n", event.to_line(high), event.to_line(low));
        let (line, _) = validate_stream(&text).expect_err("regression must be caught");
        prop_assert_eq!(line, 2);
    }
}
