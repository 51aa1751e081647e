//! Rendering of lint reports: rustc-style human output and a stable
//! JSON encoding for CI consumers.

use std::fmt::Write as _;

use rtpool_core::textfmt::Span;

use crate::diag::{Diagnostic, LintReport};

/// Renders a report in rustc style.
///
/// When `source` is available, primary spans are rendered as labeled
/// source snippets with a line-number gutter; without it, diagnostics
/// degrade to headers plus notes (spans are still printed in the
/// `--> file:line:col` line).
#[must_use]
pub fn render_human(report: &LintReport, source: Option<&str>) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        render_diagnostic(&mut out, report.file.as_deref(), d, source);
    }
    out
}

fn render_diagnostic(out: &mut String, file: Option<&str>, d: &Diagnostic, source: Option<&str>) {
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    let gutter = gutter_width(d);
    if let Some(span) = d.span {
        let _ = writeln!(
            out,
            "{:gutter$}--> {}:{}:{}",
            "",
            file.unwrap_or("<task-set>"),
            span.line,
            span.col
        );
        if let Some(src) = source {
            let _ = writeln!(out, "{:gutter$} |", "");
            render_snippet(out, gutter, span, src, '^', None);
        }
    }
    if let Some(src) = source {
        let mut labels: Vec<_> = d.labels.iter().collect();
        labels.sort_by_key(|l| (l.span.line, l.span.col));
        for label in labels {
            let _ = writeln!(out, "{:gutter$} |", "");
            render_snippet(out, gutter, label.span, src, '-', Some(&label.message));
        }
    }
    for note in &d.notes {
        let _ = writeln!(out, "{:gutter$} = note: {}", "", note);
    }
    if let Some(help) = &d.suggestion {
        let _ = writeln!(out, "{:gutter$} = help: {}", "", help);
    }
    out.push('\n');
}

/// Width of the line-number gutter: widest line number among the spans
/// that will be shown.
fn gutter_width(d: &Diagnostic) -> usize {
    d.span
        .iter()
        .chain(d.labels.iter().map(|l| &l.span))
        .map(|s| s.line.to_string().len())
        .max()
        .unwrap_or(1)
}

/// One `NN | text` snippet line plus its underline.
fn render_snippet(
    out: &mut String,
    gutter: usize,
    span: Span,
    source: &str,
    mark: char,
    message: Option<&str>,
) {
    let Some(text) = source.lines().nth(span.line.saturating_sub(1)) else {
        return;
    };
    let _ = writeln!(out, "{:>gutter$} | {}", span.line, text.trim_end());
    let pad: String = text
        .chars()
        .take(span.col.saturating_sub(1))
        .map(|c| if c == '\t' { '\t' } else { ' ' })
        .collect();
    let underline: String = std::iter::repeat_n(mark, span.len.max(1)).collect();
    let _ = write!(out, "{:gutter$} | {pad}{underline}", "");
    if let Some(msg) = message {
        let _ = write!(out, " {msg}");
    }
    out.push('\n');
}

/// Renders a report as one JSON object (a single line — reports over
/// several files concatenate to JSON Lines).
///
/// The shape is stable for CI consumers:
///
/// ```json
/// {"file": "...", "diagnostics": [{"code": "RT101", "severity": "error",
///  "message": "...", "span": {"line": 9, "col": 1, "len": 28},
///  "labels": [...], "notes": [...], "suggestion": "..."}],
///  "summary": {"errors": 1, "warnings": 0, "infos": 0}}
/// ```
#[must_use]
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{");
    match &report.file {
        Some(f) => {
            let _ = write!(out, "\"file\":\"{}\"", esc(f));
        }
        None => out.push_str("\"file\":null"),
    }
    out.push_str(",\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_diagnostic(&mut out, d);
    }
    let _ = write!(
        out,
        "],\"summary\":{{\"errors\":{},\"warnings\":{},\"infos\":{}}}}}",
        report.errors(),
        report.warnings(),
        report.infos()
    );
    out
}

fn json_diagnostic(out: &mut String, d: &Diagnostic) {
    let _ = write!(
        out,
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"span\":",
        d.code,
        d.severity,
        esc(&d.message)
    );
    json_span(out, d.span);
    out.push_str(",\"labels\":[");
    for (i, l) in d.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"span\":");
        json_span(out, Some(l.span));
        let _ = write!(out, ",\"message\":\"{}\"}}", esc(&l.message));
    }
    out.push_str("],\"notes\":[");
    for (i, n) in d.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", esc(n));
    }
    out.push_str("],\"suggestion\":");
    match &d.suggestion {
        Some(s) => {
            let _ = write!(out, "\"{}\"", esc(s));
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"fix\":");
    match &d.fix {
        Some(fix) => json_fix(out, fix),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// The machine-applicable payload: `data` as an object in emission
/// order, `edits` as span/replacement pairs.
fn json_fix(out: &mut String, fix: &crate::diag::Fix) {
    let _ = write!(out, "{{\"message\":\"{}\",\"data\":{{", esc(&fix.message));
    for (i, (key, value)) in fix.data.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", esc(key), value);
    }
    out.push_str("},\"edits\":[");
    for (i, e) in fix.edits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"span\":");
        json_span(out, Some(e.span));
        let _ = write!(out, ",\"replacement\":\"{}\"}}", esc(&e.replacement));
    }
    out.push_str("]}");
}

fn json_span(out: &mut String, span: Option<Span>) {
    match span {
        Some(s) => {
            let _ = write!(
                out,
                "{{\"line\":{},\"col\":{},\"len\":{}}}",
                s.line, s.col, s.len
            );
        }
        None => out.push_str("null"),
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    rtpool_trace::json::escape_into(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{RT101, RT202};
    use crate::diag::Severity;

    fn sample_report() -> (LintReport, &'static str) {
        let source = "task period=400 deadline=400\n  node f1 1\n  blocking f1 j1\n";
        let report = LintReport {
            file: Some("demo.rtp".into()),
            diagnostics: vec![
                Diagnostic::new(RT101, Severity::Error, "task \u{3c4}0 can deadlock")
                    .with_span(Span::new(1, 1, 28))
                    .with_label(Span::new(3, 3, 14), "this fork suspends a worker")
                    .with_note("floor is 0")
                    .with_suggestion("use m >= 3"),
                Diagnostic::new(RT202, Severity::Warning, "zero \"WCET\""),
            ],
        };
        (report, source)
    }

    #[test]
    fn human_rendering_shows_snippets_and_notes() {
        let (report, source) = sample_report();
        let text = render_human(&report, Some(source));
        assert!(text.contains("error[RT101]: task \u{3c4}0 can deadlock"));
        assert!(text.contains("--> demo.rtp:1:1"));
        assert!(text.contains("1 | task period=400 deadline=400"));
        assert!(text.contains("  | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^"));
        assert!(text.contains("3 |   blocking f1 j1"));
        assert!(text.contains("-------------- this fork suspends a worker"));
        assert!(text.contains("= note: floor is 0"));
        assert!(text.contains("= help: use m >= 3"));
        assert!(text.contains("warning[RT202]"));
    }

    #[test]
    fn human_rendering_degrades_without_source() {
        let (report, _) = sample_report();
        let text = render_human(&report, None);
        assert!(text.contains("--> demo.rtp:1:1"));
        assert!(!text.contains("task period=400"));
        assert!(text.contains("= note: floor is 0"));
    }

    #[test]
    fn json_is_single_line_and_escaped() {
        let (report, _) = sample_report();
        let json = render_json(&report);
        assert_eq!(json.lines().count(), 1);
        assert!(json.starts_with("{\"file\":\"demo.rtp\",\"diagnostics\":["));
        assert!(json.contains("\"code\":\"RT101\""));
        assert!(json.contains("\"span\":{\"line\":1,\"col\":1,\"len\":28}"));
        assert!(json.contains("\"message\":\"zero \\\"WCET\\\"\""));
        assert!(json.contains("\"span\":null"));
        assert!(json.ends_with("\"summary\":{\"errors\":1,\"warnings\":1,\"infos\":0}}"));
    }
}
