//! Plain-text and CSV rendering of every study's results.
//!
//! An empty point (no sample evaluated) has no ratio: the text tables
//! say so and the CSVs omit it, never printing `NaN` or a placeholder 0.

use std::fmt::Write as _;

use crate::fig2::{Inset, Tally};
use crate::tightness::Tightness;

/// Renders one aligned text table per inset of `series` (the shape the
/// paper's plots encode), each under `title(inset)`, with one ratio
/// column per verdict.
pub(crate) fn render_text<const K: usize>(
    series: &[(Inset, Vec<Tally<K>>)],
    columns: &[&str; K],
    title: impl Fn(Inset) -> String,
) -> String {
    let widths = columns.map(|c| c.len().max(10));
    let mut out = String::new();
    for (inset, points) in series {
        let mut header = format!("{:>6}", inset.x_label());
        for (column, w) in columns.iter().zip(widths) {
            let _ = write!(header, " | {column:>w$}");
        }
        let _ = write!(header, " | {:>8} | {:>7}", "samples", "skipped");
        let _ = writeln!(
            out,
            "{}\n{header}\n{}",
            title(*inset),
            "-".repeat(header.len())
        );
        for p in points {
            let _ = write!(out, "{:>6}", p.x);
            let Some(ratios) = p.ratios() else {
                let _ = writeln!(out, " | (no samples survived the budgets)");
                continue;
            };
            for (ratio, w) in ratios.iter().zip(widths) {
                let _ = write!(out, " | {ratio:>w$.3}");
            }
            let _ = writeln!(out, " | {:>8} | {:>7}", p.samples, p.skipped);
        }
        out.push('\n');
    }
    out
}

/// Renders `series` as one CSV with a header row. The x column is named
/// after the swept parameter when the file holds one inset, `x` when it
/// holds several (the `inset` column then says which parameter it is).
pub(crate) fn render_csv<const K: usize>(
    series: &[(Inset, Vec<Tally<K>>)],
    columns: &[&str; K],
) -> String {
    let x_label = match series {
        [(inset, _)] => inset.x_label(),
        _ => "x",
    };
    let mut out = format!("inset,{x_label}");
    for column in columns {
        let _ = write!(out, ",{column}_ratio");
    }
    out.push_str(",samples,skipped,errors\n");
    for (inset, points) in series {
        for p in points {
            let Some(ratios) = p.ratios() else { continue };
            let _ = write!(out, "{},{}", inset.letter(), p.x);
            for ratio in ratios {
                let _ = write!(out, ",{ratio:.6}");
            }
            let _ = writeln!(out, ",{},{},{}", p.samples, p.skipped, p.errors);
        }
    }
    out
}

/// Renders the tightness study as a text table under `title`; an
/// analysis that accepted no set has no ratio to show.
pub(crate) fn render_tightness_text(rows: &[Tightness], title: &str) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "{:<26} | {:>8} | {:>11} | {:>10} | {:>10}\n{}",
        "analysis",
        "accepted",
        "mean R/Rsim",
        "max R/Rsim",
        "violations",
        "-".repeat(78)
    );
    for t in rows {
        if t.accepted == 0 {
            let _ = writeln!(out, "{:<26} | (no set accepted)", t.label);
            continue;
        }
        let _ = writeln!(
            out,
            "{:<26} | {:>8} | {:>11.3} | {:>10.3} | {:>10}",
            t.label, t.accepted, t.mean_ratio, t.max_ratio, t.violations
        );
    }
    out.push_str(
        "(violations = simulated response above the analytic bound; only the\n \
         oblivious baseline can violate — the unsafety the paper demonstrates)\n\n",
    );
    out
}

/// Renders the tightness study as CSV, one row per analysis that
/// accepted a set.
pub(crate) fn render_tightness_csv(rows: &[Tightness], sets: usize) -> String {
    let mut out = String::from("analysis,sets,accepted,mean_ratio,max_ratio,violations\n");
    for t in rows.iter().filter(|t| t.accepted > 0) {
        let _ = writeln!(
            out,
            "{},{sets},{},{:.6},{:.6},{}",
            t.label, t.accepted, t.mean_ratio, t.max_ratio, t.violations
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(x: i64, accepted: [usize; 2], samples: usize, skipped: usize) -> Tally<2> {
        Tally {
            x,
            accepted,
            samples,
            skipped,
            errors: 0,
        }
    }

    fn sample_series(inset: Inset) -> Vec<(Inset, Vec<Tally<2>>)> {
        vec![(
            inset,
            vec![point(1, [10, 100], 100, 0), point(2, [85, 100], 100, 3)],
        )]
    }

    const COLUMNS: [&str; 2] = ["proposed", "baseline"];

    #[test]
    fn text_table_shows_ratios_and_marks_empty_points() {
        let mut series = sample_series(Inset::A);
        series[0].1.push(point(3, [0, 0], 0, 100));
        let s = render_text(&series, &COLUMNS, |_| "Figure 2(a)".into());
        assert!(
            s.starts_with("Figure 2(a)\n l_max |   proposed |   baseline |  samples | skipped\n")
        );
        assert!(s.contains("     2 |      0.850 |      1.000 |      100 |       3\n"));
        assert!(s.contains("     3 | (no samples survived the budgets)\n"));
        assert!(!s.contains("0.000"));
    }

    #[test]
    fn csv_has_header_and_rows_and_omits_empty_points() {
        let mut series = sample_series(Inset::C);
        series[0].1.push(point(3, [0, 0], 0, 100));
        let s = render_csv(&series, &COLUMNS);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(
            lines,
            [
                "inset,m,proposed_ratio,baseline_ratio,samples,skipped,errors",
                "c,1,0.100000,1.000000,100,0,0",
                "c,2,0.850000,1.000000,100,3,0"
            ]
        );
        series.extend(sample_series(Inset::A));
        assert!(render_csv(&series, &COLUMNS).starts_with("inset,x,"));
    }
}
