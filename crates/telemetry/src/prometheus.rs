//! Prometheus text-format exposition (version 0.0.4) for registry
//! snapshots, plus a strict parser used by the CI smoke test to prove the
//! exposition is well-formed without any external scrape stack.

use std::fmt::Write as _;

use crate::registry::MetricSnapshot;

/// Renders `snapshot` in the Prometheus text exposition format: one
/// `# TYPE` comment per family, histogram buckets as cumulative
/// `_bucket{le="…"}` series ending in `le="+Inf"`, plus `_sum` and
/// `_count`. Deterministic by construction: families are sorted by name
/// before rendering (registry snapshots already arrive name-sorted; the
/// sort here makes the ordering a property of the exposition itself, not
/// of the caller), and within a histogram the bucket label order is the
/// fixed ascending `le` sequence. The golden test below pins the exact
/// byte layout so CI diffs of scraped output are stable.
pub fn render(snapshot: &[MetricSnapshot]) -> String {
    let mut ordered: Vec<&MetricSnapshot> = snapshot.iter().collect();
    ordered.sort_by(|a, b| a.name().cmp(b.name()));
    let mut out = String::new();
    for metric in ordered {
        match metric {
            MetricSnapshot::Counter { name, value } => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {value}");
            }
            MetricSnapshot::Gauge { name, value } => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {value}");
            }
            MetricSnapshot::Histogram {
                name,
                count,
                sum,
                buckets,
            } => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (upper, bucket_count) in buckets {
                    cumulative += bucket_count;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                let _ = writeln!(out, "{name}_sum {sum}");
                let _ = writeln!(out, "{name}_count {count}");
            }
        }
    }
    out
}

/// Aggregate results of [`validate`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpositionStats {
    /// Metric families (`# TYPE` lines).
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates a text-format exposition: every line is a `# TYPE` comment or
/// a `name[{labels}] value` sample, names are legal, every sample belongs
/// to a declared family, histogram buckets are cumulative and end with
/// `le="+Inf"` matching `_count`.
///
/// # Errors
///
/// Returns `(line number, problem)` for the first offense (1-based).
pub fn validate(text: &str) -> Result<ExpositionStats, (usize, String)> {
    let mut stats = ExpositionStats::default();
    let mut families: Vec<(String, String)> = Vec::new(); // (name, type)
                                                          // Per-histogram running state: (family, last cumulative, inf seen, count seen)
    let mut hist: Option<(String, u64, Option<u64>, Option<u64>)> = None;

    fn close_histogram(
        state: &Option<(String, u64, Option<u64>, Option<u64>)>,
        line: usize,
    ) -> Result<(), (usize, String)> {
        if let Some((name, _, inf, count)) = state {
            let inf = inf.ok_or((line, format!("{name}: missing le=\"+Inf\" bucket")))?;
            let count = count.ok_or((line, format!("{name}: missing _count sample")))?;
            if inf != count {
                return Err((line, format!("{name}: +Inf bucket {inf} != count {count}")));
            }
        }
        Ok(())
    }

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# TYPE ") {
            close_histogram(&hist, lineno)?;
            hist = None;
            let mut parts = comment.split_whitespace();
            let name = parts
                .next()
                .ok_or((lineno, "TYPE without name".to_string()))?;
            let kind = parts
                .next()
                .ok_or((lineno, "TYPE without kind".to_string()))?;
            if !valid_metric_name(name) {
                return Err((lineno, format!("illegal metric name `{name}`")));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err((lineno, format!("unknown metric type `{kind}`")));
            }
            if families.iter().any(|(n, _)| n == name) {
                return Err((lineno, format!("duplicate family `{name}`")));
            }
            families.push((name.to_string(), kind.to_string()));
            if kind == "histogram" {
                hist = Some((name.to_string(), 0, None, None));
            }
            stats.families += 1;
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (HELP) are allowed
        }

        // A sample: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or((lineno, "sample without value".to_string()))?;
        let value: f64 = value
            .parse()
            .map_err(|_| (lineno, format!("bad sample value `{value}`")))?;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or((lineno, "unterminated label set".to_string()))?;
                (name, Some(labels))
            }
            None => (series.trim_end(), None),
        };
        if !valid_metric_name(name) {
            return Err((lineno, format!("illegal metric name `{name}`")));
        }
        let family = families
            .iter()
            .find(|(n, _)| {
                name == n
                    || (name
                        .strip_prefix(n.as_str())
                        .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count")))
            })
            .ok_or((lineno, format!("sample `{name}` without TYPE declaration")))?
            .clone();

        if family.1 == "histogram" {
            let (hname, last, inf, count) = hist
                .as_mut()
                .filter(|(n, ..)| *n == family.0)
                .ok_or((lineno, format!("histogram sample `{name}` out of order")))?;
            if name == format!("{hname}_bucket") {
                let labels = labels.ok_or((lineno, "bucket without le label".to_string()))?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or((lineno, format!("bad bucket labels `{labels}`")))?;
                let cumulative = value as u64;
                if cumulative < *last {
                    return Err((lineno, format!("{hname}: bucket counts not cumulative")));
                }
                *last = cumulative;
                if le == "+Inf" {
                    *inf = Some(cumulative);
                }
            } else if name == format!("{hname}_count") {
                *count = Some(value as u64);
            } else if name != format!("{hname}_sum") {
                return Err((lineno, format!("unexpected histogram sample `{name}`")));
            }
        } else if labels.is_some() {
            return Err((lineno, format!("unexpected labels on `{name}`")));
        } else if name != family.0 {
            return Err((lineno, format!("sample `{name}` without TYPE declaration")));
        }
        stats.samples += 1;
    }
    close_histogram(&hist, text.lines().count())?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{PhaseTimers, Registry};

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("cellflow_rounds_total").add(12);
        reg.gauge("cellflow_population").set(-3);
        let timers = PhaseTimers::register(&reg);
        for v in [100, 200, 100_000] {
            timers.route.observe(v);
        }
        reg
    }

    #[test]
    fn render_is_valid_and_deterministic() {
        let reg = sample_registry();
        let text = render(&reg.snapshot());
        let again = render(&reg.snapshot());
        assert_eq!(text, again);
        let stats = validate(&text).unwrap();
        assert_eq!(stats.families, 6); // counter + gauge + 4 phase histograms
        assert!(text.contains("# TYPE cellflow_rounds_total counter"));
        assert!(text.contains("cellflow_rounds_total 12"));
        assert!(text.contains("cellflow_population -3"));
        assert!(text.contains("cellflow_engine_route_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("cellflow_engine_route_ns_sum 100300"));
    }

    #[test]
    fn render_sorts_families_regardless_of_snapshot_order() {
        let reg = Registry::new();
        reg.counter("z_last").add(1);
        reg.counter("a_first").add(2);
        let mut snapshot = reg.snapshot();
        snapshot.reverse(); // hand the renderer a deliberately unsorted view
        let text = render(&snapshot);
        let a = text.find("a_first").unwrap();
        let z = text.find("z_last").unwrap();
        assert!(a < z, "families not name-sorted:\n{text}");
        assert_eq!(text, render(&reg.snapshot()));
    }

    #[test]
    fn golden_exposition_is_pinned() {
        // The full byte-exact exposition for a small registry. If this test
        // breaks, scraped-output diffs in CI break with it — change the
        // renderer only with a deliberate golden update.
        let reg = Registry::new();
        reg.counter("cellflow_rounds_total").add(12);
        reg.gauge("cellflow_population").set(-3);
        let h = reg.histogram("cellflow_round_ns");
        for v in [1, 2, 3] {
            h.observe(v);
        }
        let text = render(&reg.snapshot());
        let golden = "\
# TYPE cellflow_population gauge
cellflow_population -3
# TYPE cellflow_round_ns histogram
cellflow_round_ns_bucket{le=\"1\"} 1
cellflow_round_ns_bucket{le=\"3\"} 3
cellflow_round_ns_bucket{le=\"+Inf\"} 3
cellflow_round_ns_sum 6
cellflow_round_ns_count 3
# TYPE cellflow_rounds_total counter
cellflow_rounds_total 12
";
        assert_eq!(text, golden);
        validate(&text).unwrap();
    }

    #[test]
    fn buckets_render_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        h.observe(1); // bucket le=1
        h.observe(2); // bucket le=3
        h.observe(3); // bucket le=3
        let text = render(&reg.snapshot());
        assert!(text.contains("h_bucket{le=\"1\"} 1"));
        assert!(text.contains("h_bucket{le=\"3\"} 3"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("h_count 3"));
        validate(&text).unwrap();
    }

    #[test]
    fn empty_snapshot_renders_empty_and_validates() {
        let text = render(&[]);
        assert!(text.is_empty());
        assert_eq!(validate(&text).unwrap(), ExpositionStats::default());
    }

    #[test]
    fn validate_rejects_malformed_expositions() {
        let cases = [
            ("metric_without_type 1\n", "without TYPE"),
            ("# TYPE m counter\n# TYPE m counter\nm 1\n", "duplicate"),
            ("# TYPE m summary\n", "unknown metric type"),
            ("# TYPE m counter\nm notanumber\n", "bad sample value"),
            ("# TYPE 0bad counter\n0bad 1\n", "illegal metric name"),
            ("# TYPE m counter\nm{le=\"1\"} 1\n", "unexpected labels"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
                "not cumulative",
            ),
            (
                "# TYPE h histogram\nh_sum 1\nh_count 3\n",
                "missing le=\"+Inf\"",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\n",
                "missing _count",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
                "!= count",
            ),
        ];
        for (text, needle) in cases {
            let err = validate(text).unwrap_err();
            assert!(err.1.contains(needle), "{text:?} gave {err:?}");
        }
    }

    #[test]
    fn help_comments_and_blanks_are_tolerated() {
        let text = "# HELP m something\n# TYPE m counter\n\nm 4\n";
        let stats = validate(text).unwrap();
        assert_eq!(
            stats,
            ExpositionStats {
                families: 1,
                samples: 1
            }
        );
    }
}
