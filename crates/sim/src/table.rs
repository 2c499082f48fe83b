//! Plain-text and CSV rendering of experiment series — the output format of
//! the figure-regeneration harness.

/// One plotted series: a label and `(x, y)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"v=0.2"`.
    pub label: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The y values.
    pub fn ys(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, y)| y)
    }
}

/// Formats aligned columns: the shared x axis plus one column per series —
/// the "same rows the paper reports" output of each figure binary.
///
/// # Panics
///
/// Panics if the series do not share identical x values.
///
/// ```
/// use cellflow_sim::table::{format_table, Series};
///
/// let s = Series::new("v=0.2", vec![(0.05, 0.061), (0.10, 0.052)]);
/// let text = format_table("rs", &[s]);
/// assert!(text.contains("rs"));
/// assert!(text.contains("0.0610"));
/// ```
pub fn format_table(x_label: &str, series: &[Series]) -> String {
    let xs = check_shared_xs(series);
    let mut out = String::new();
    // Header.
    out.push_str(&format!("{x_label:>10}"));
    for s in series {
        out.push_str(&format!("  {:>12}", s.label));
    }
    out.push('\n');
    // Rows.
    for (row, &x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:>10.4}"));
        for s in series {
            out.push_str(&format!("  {:>12.4}", s.points[row].1));
        }
        out.push('\n');
    }
    out
}

/// Formats the same data as CSV (`x_label,label1,label2,…`).
///
/// # Panics
///
/// Panics if the series do not share identical x values.
pub fn to_csv(x_label: &str, series: &[Series]) -> String {
    let xs = check_shared_xs(series);
    let mut out = String::new();
    out.push_str(x_label);
    for s in series {
        out.push(',');
        out.push_str(&s.label);
    }
    out.push('\n');
    for (row, &x) in xs.iter().enumerate() {
        out.push_str(&format!("{x}"));
        for s in series {
            out.push_str(&format!(",{}", s.points[row].1));
        }
        out.push('\n');
    }
    out
}

fn check_shared_xs(series: &[Series]) -> Vec<f64> {
    let Some(first) = series.first() else {
        return Vec::new();
    };
    let xs: Vec<f64> = first.points.iter().map(|&(x, _)| x).collect();
    for s in series {
        let these: Vec<f64> = s.points.iter().map(|&(x, _)| x).collect();
        assert_eq!(these, xs, "series '{}' has mismatched x values", s.label);
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_series() -> Vec<Series> {
        vec![
            Series::new("a", vec![(1.0, 10.0), (2.0, 20.0)]),
            Series::new("b", vec![(1.0, 0.5), (2.0, 0.25)]),
        ]
    }

    #[test]
    fn table_aligns_columns() {
        let t = format_table("x", &two_series());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a') && lines[0].contains('b'));
        assert!(lines[1].contains("10.0000"));
        assert!(lines[2].contains("0.2500"));
    }

    #[test]
    fn csv_round_numbers() {
        let c = to_csv("x", &two_series());
        assert_eq!(c.lines().next().unwrap(), "x,a,b");
        assert_eq!(c.lines().nth(1).unwrap(), "1,10,0.5");
    }

    #[test]
    fn empty_series_list_is_empty_output() {
        assert_eq!(format_table("x", &[]), format!("{:>10}\n", "x"));
        assert_eq!(to_csv("x", &[]), "x\n");
    }

    #[test]
    #[should_panic(expected = "mismatched x")]
    fn mismatched_xs_panic() {
        let bad = vec![
            Series::new("a", vec![(1.0, 1.0)]),
            Series::new("b", vec![(2.0, 1.0)]),
        ];
        let _ = format_table("x", &bad);
    }

    #[test]
    fn series_ys() {
        let s = Series::new("a", vec![(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(s.ys().collect::<Vec<_>>(), vec![1.0, 2.0]);
    }
}
