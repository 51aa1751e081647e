//! A plain-text format for task sets (`.rtp` files).
//!
//! The format is line-oriented and diff-friendly; it exists so workloads
//! can be stored in a repository, inspected by hand, and fed to the
//! `analyze` / `rtlint` CLIs without a serialization framework:
//!
//! ```text
//! # comments and blank lines are ignored
//! task period=200 deadline=150
//!   node v1 10
//!   node v2 20
//!   node v3 20
//!   node v5 10
//!   edge v1 v2
//!   edge v1 v3
//!   edge v2 v5
//!   edge v3 v5
//!   blocking v1 v5
//! end
//! ```
//!
//! * `backend suspend|spin` (optional, file-level, before any task, at
//!   most once) selects the synchronization backend the set's blocking
//!   barriers run on; absent means `suspend`, so every pre-existing file
//!   keeps its meaning. `write_task_set` emits the directive only for
//!   spin sets, making suspend output byte-identical to before the
//!   backend existed.
//! * `task period=<int> [deadline=<int>]` opens a task (deadline defaults
//!   to the period); tasks appear in priority order (first = highest).
//! * `node <name> <wcet>` declares a node; names are arbitrary
//!   identifiers unique within the task.
//! * `edge <from> <to>` adds a precedence edge.
//! * `blocking <fork> <join>` declares a blocking region (the fork
//!   becomes `BF`, the join `BJ`, enclosed nodes `BC`).
//! * `end` closes the task; the graph is validated on the spot.
//!
//! ## Source locations
//!
//! The parser tracks a [`Span`] (line, column, length — all 1-based) for
//! every directive and token it consumes. Every [`ParseTaskError`]
//! carries the span of the offending token, and
//! [`parse_task_set_with_spans`] additionally returns a [`SourceSpans`]
//! map from semantic entities (task headers, nodes, blocking
//! declarations) back to their declaration sites, so downstream
//! diagnostics — notably the `rtlint` static-analysis pass — can render
//! rustc-style labeled snippets.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use rtpool_graph::{Dag, GraphError, NodeId, SyncBackend};

use crate::error::CoreError;
use crate::task::{Task, TaskId, TaskSet};

/// A source location inside an `.rtp` file: 1-based line and column plus
/// the length of the highlighted region, all counted in characters.
///
/// **Guarantee:** columns and lengths count Unicode scalar values
/// (`char`s), never UTF-8 bytes — `node bêta 2` spans 11 columns even
/// though it is 12 bytes. Every consumer relies on this: the rustc-style
/// renderer aligns its `^^^` carets by `char`, `rtlint --fix-dry-run`
/// splices replacement text into a `Vec<char>`, and the
/// `rtpool-codegen` build gate replays spans verbatim into build
/// failures. The `unicode_spans` golden fixture in `rtpool-lint` and the
/// `spans_count_chars_not_bytes` test below pin the behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the first highlighted character.
    pub col: usize,
    /// Number of highlighted characters (at least 1 for real spans).
    pub len: usize,
}

impl Span {
    /// A span covering `len` characters starting at `line:col`.
    #[must_use]
    pub fn new(line: usize, col: usize, len: usize) -> Self {
        Span { line, col, len }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors produced while parsing the text format.
///
/// Every variant carries both the legacy 1-based `line` (kept for
/// backward compatibility and the `Display` text) and a precise [`Span`]
/// pointing at the offending token.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ParseTaskError {
    /// A directive appeared outside/inside a `task … end` block
    /// incorrectly, or was malformed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Location of the offending token.
        span: Span,
        /// What went wrong.
        message: String,
    },
    /// A node name was referenced before being declared.
    UnknownName {
        /// 1-based line number.
        line: usize,
        /// Location of the undeclared name.
        span: Span,
        /// The undeclared name.
        name: String,
    },
    /// A node name was declared twice within one task.
    DuplicateName {
        /// 1-based line number.
        line: usize,
        /// Location of the repeated declaration.
        span: Span,
        /// The repeated name.
        name: String,
    },
    /// The task's graph violates the model (reported by the builder).
    Graph {
        /// 1-based line number of the directive that triggered validation.
        line: usize,
        /// Location of the primary witness: the declaration of the first
        /// node involved in the error when known (via
        /// [`GraphError::nodes`]), else the triggering directive.
        span: Span,
        /// The underlying graph error.
        source: GraphError,
    },
    /// The task's timing parameters are invalid.
    Timing {
        /// 1-based line number of the `task` directive.
        line: usize,
        /// Location of the `task` header.
        span: Span,
        /// The underlying model error.
        source: CoreError,
    },
}

impl ParseTaskError {
    /// The source location of the offending token.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            ParseTaskError::Syntax { span, .. }
            | ParseTaskError::UnknownName { span, .. }
            | ParseTaskError::DuplicateName { span, .. }
            | ParseTaskError::Graph { span, .. }
            | ParseTaskError::Timing { span, .. } => *span,
        }
    }
}

impl fmt::Display for ParseTaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTaskError::Syntax { line, message, .. } => write!(f, "line {line}: {message}"),
            ParseTaskError::UnknownName { line, name, .. } => {
                write!(f, "line {line}: unknown node name `{name}`")
            }
            ParseTaskError::DuplicateName { line, name, .. } => {
                write!(f, "line {line}: node name `{name}` declared twice")
            }
            ParseTaskError::Graph { line, source, .. } => {
                write!(f, "line {line}: invalid task graph: {source}")
            }
            ParseTaskError::Timing { line, source, .. } => {
                write!(f, "line {line}: invalid timing parameters: {source}")
            }
        }
    }
}

impl Error for ParseTaskError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTaskError::Graph { source, .. } => Some(source),
            ParseTaskError::Timing { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Source locations of one parsed task's semantic entities.
#[derive(Clone, Debug, Default)]
pub struct TaskSpans {
    header: Span,
    names: Vec<String>,
    nodes: Vec<Span>,
    blocking: Vec<(usize, Span)>,
}

impl TaskSpans {
    /// The span of the `task period=… …` header directive.
    #[must_use]
    pub fn header(&self) -> Span {
        self.header
    }

    /// The declared name of node `v` (`None` if `v` is out of range).
    #[must_use]
    pub fn name(&self, v: NodeId) -> Option<&str> {
        self.names.get(v.index()).map(String::as_str)
    }

    /// The span of node `v`'s `node <name> <wcet>` declaration.
    #[must_use]
    pub fn node(&self, v: NodeId) -> Option<Span> {
        self.nodes.get(v.index()).copied()
    }

    /// The span of the `blocking <fork> <join>` declaration whose fork is
    /// `fork`, if one exists.
    #[must_use]
    pub fn blocking_decl(&self, fork: NodeId) -> Option<Span> {
        self.blocking
            .iter()
            .find(|&&(f, _)| f == fork.index())
            .map(|&(_, s)| s)
    }
}

/// Source locations for every task of a parsed set, indexed by
/// [`TaskId`] in declaration (= priority) order.
#[derive(Clone, Debug, Default)]
pub struct SourceSpans {
    tasks: Vec<TaskSpans>,
}

impl SourceSpans {
    /// Number of tasks covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` when no task was parsed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The spans of task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &TaskSpans {
        &self.tasks[id.index()]
    }

    /// Iterates over all task span maps in priority order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &TaskSpans> {
        self.tasks.iter()
    }
}

/// A whitespace-separated token and the part of its line that precedes
/// it; the 1-based column is counted from that only when a span is asked
/// for, so lines that raise no error and record no site never count.
#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    before: &'a str,
    text: &'a str,
}

impl Tok<'_> {
    fn col(&self) -> usize {
        self.before.chars().count() + 1
    }

    fn span(&self, line: usize) -> Span {
        Span::new(line, self.col(), self.text.chars().count())
    }

    /// A syntax error pointing at this token.
    fn error(&self, line: usize, message: impl Into<String>) -> ParseTaskError {
        syntax(line, self.span(line), message)
    }
}

/// Splits the first line of `text` — through its `\n`, or to the end —
/// into `toks` (cleared first; one buffer serves every line of a parse)
/// and returns that line's length in bytes, so lines and tokens are found
/// in one pass. A `#` ends the tokens. Tokens split where
/// [`char::is_whitespace`] says; an ASCII byte is tested as it is, and a
/// `char` is decoded only where a byte is not ASCII (`.rtp` keywords and
/// numbers are ASCII; names need not be). A `\r` before the `\n` is
/// whitespace, so lines split as [`str::lines`] splits them.
fn tokenize_line<'a>(text: &'a str, toks: &mut Vec<Tok<'a>>) -> usize {
    toks.clear();
    let mut push = |from: usize, to: usize| {
        toks.push(Tok {
            before: &text[..from],
            text: &text[from..to],
        });
    };
    let (bytes, mut at, mut start) = (text.as_bytes(), 0, None);
    while let Some(&b) = bytes.get(at) {
        let (blank, width) = if b.is_ascii() {
            if b == b'\n' || b == b'#' {
                break;
            }
            // `char::is_whitespace` on ASCII; unlike
            // `u8::is_ascii_whitespace` it includes `\x0B`.
            (matches!(b, b'\t' | b'\x0B' | b'\x0C' | b'\r' | b' '), 1)
        } else {
            let ch = text[at..].chars().next().expect("`at` is a char boundary");
            (ch.is_whitespace(), ch.len_utf8())
        };
        if blank {
            if let Some(from) = start.take() {
                push(from, at);
            }
        } else if start.is_none() {
            start = Some(at);
        }
        at += width;
    }
    if let Some(from) = start {
        push(from, at);
    }
    match bytes[at..].iter().position(|&b| b == b'\n') {
        Some(newline) => at + newline + 1,
        None => bytes.len(),
    }
}

/// The span covering a whole directive (first through last token).
fn line_span(line: usize, toks: &[Tok<'_>]) -> Span {
    let first = toks.first().expect("directive has at least one token");
    let last = toks.last().expect("directive has at least one token");
    let col = first.col();
    Span::new(line, col, last.col() + last.text.chars().count() - col)
}

/// Parses a task set from the text format.
///
/// # Errors
///
/// Returns the first [`ParseTaskError`] with its line number and span.
///
/// # Examples
///
/// ```
/// let text = "
/// task period=100
///   node a 10
///   node b 20
///   edge a b
/// end
/// ";
/// let set = rtpool_core::textfmt::parse_task_set(text)?;
/// assert_eq!(set.len(), 1);
/// assert_eq!(set.task(rtpool_core::TaskId(0)).volume(), 30);
/// # Ok::<(), rtpool_core::textfmt::ParseTaskError>(())
/// ```
pub fn parse_task_set(input: &str) -> Result<TaskSet, ParseTaskError> {
    // Valid input pays for no declaration sites. A build error points at
    // a node's site, so invalid input is parsed once more with recording
    // on: the error is `parse_task_set_with_spans`'s by construction.
    parse(input, false)
        .or_else(|_| parse(input, true))
        .map(|(set, _)| set)
}

/// Parses a task set and returns, alongside it, the [`SourceSpans`]
/// mapping every semantic entity back to its declaration site.
///
/// This is the location-tracking entry point diagnostic tooling builds
/// on: `rtlint` uses the returned map to point rule findings at task
/// headers, node declarations, and `blocking` directives.
///
/// # Errors
///
/// Returns the first [`ParseTaskError`] with its line number and span.
///
/// # Examples
///
/// ```
/// use rtpool_core::textfmt::parse_task_set_with_spans;
/// use rtpool_core::TaskId;
/// use rtpool_graph::NodeId;
///
/// let text = "task period=100\n  node a 10\nend\n";
/// let (set, spans) = parse_task_set_with_spans(text)?;
/// assert_eq!(set.len(), 1);
/// let t = spans.task(TaskId(0));
/// assert_eq!(t.header().line, 1);
/// assert_eq!(t.name(NodeId::from_index(0)), Some("a"));
/// assert_eq!(t.node(NodeId::from_index(0)).unwrap().line, 2);
/// # Ok::<(), rtpool_core::textfmt::ParseTaskError>(())
/// ```
pub fn parse_task_set_with_spans(input: &str) -> Result<(TaskSet, SourceSpans), ParseTaskError> {
    parse(input, true)
}

const OUTSIDE: &str = "directive outside a `task … end` block";

/// The one parser body. A task's graph is three lists — node WCETs,
/// edges and blocking pairs — that `end` hands to [`Dag::from_lists`].
///
/// With `record` unset no declaration site is computed or stored, the
/// returned [`SourceSpans`] is empty, and a self-loop or a repeated edge
/// is left for `from_lists` to find at `end`: any error sends
/// [`parse_task_set`] to the recording pass, which reports both at the
/// directive that declares them, before anything later in the text.
fn parse(input: &str, record: bool) -> Result<(TaskSet, SourceSpans), ParseTaskError> {
    let mut tasks = Vec::new();
    let mut spans = Vec::new();
    let mut current: Option<TaskInProgress> = None;
    let mut backend: Option<(SyncBackend, usize)> = None;
    // Reused across lines and tasks, cleared when a task opens; names are
    // slices of `input`. The name map and the recording pass's edge set
    // keep std's keyed hasher: the text comes from outside.
    let mut toks = Vec::new();
    let mut names: HashMap<&str, NodeId> = HashMap::new();
    let (mut wcets, mut edges, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();

    let (mut rest, mut line_no) = (input, 0);
    while !rest.is_empty() {
        line_no += 1;
        rest = &rest[tokenize_line(rest, &mut toks)..];
        let Some(&directive) = toks.first() else {
            continue;
        };
        let args = &toks[1..];
        match directive.text {
            "backend" => {
                if current.is_some() {
                    return Err(directive.error(
                        line_no,
                        "`backend` is file-level and cannot appear inside a task block",
                    ));
                }
                if !tasks.is_empty() {
                    return Err(directive.error(line_no, "`backend` must precede every task"));
                }
                if let Some((_, prev)) = backend {
                    return Err(directive.error(
                        line_no,
                        format!("`backend` already declared on line {prev}"),
                    ));
                }
                let which = args.first().ok_or_else(|| {
                    directive.error(line_no, "`backend` requires `suspend` or `spin`")
                })?;
                let b = SyncBackend::parse(which.text).ok_or_else(|| {
                    which.error(
                        line_no,
                        format!(
                            "unknown backend `{}` (expected `suspend` or `spin`)",
                            which.text
                        ),
                    )
                })?;
                expect_end(args.get(1), line_no)?;
                backend = Some((b, line_no));
            }
            "task" => {
                if let Some(t) = &current {
                    return Err(directive.error(
                        line_no,
                        format!(
                            "`task` inside an unterminated task block (opened on line {})",
                            t.header.line
                        ),
                    ));
                }
                let mut period: Option<u64> = None;
                let mut deadline: Option<u64> = None;
                for kv in args {
                    let (key, value) = kv.text.split_once('=').ok_or_else(|| {
                        kv.error(line_no, format!("expected key=value, got `{}`", kv.text))
                    })?;
                    let value: u64 = value.parse().map_err(|_| {
                        kv.error(line_no, format!("invalid integer `{value}` for `{key}`"))
                    })?;
                    match key {
                        "period" => period = Some(value),
                        "deadline" => deadline = Some(value),
                        other => return Err(kv.error(line_no, format!("unknown key `{other}`"))),
                    }
                }
                let period = period.ok_or_else(|| {
                    syntax(
                        line_no,
                        line_span(line_no, &toks),
                        "`task` requires period=<int>",
                    )
                })?;
                let header = line_span(line_no, &toks);
                names.clear();
                wcets.clear();
                edges.clear();
                pairs.clear();
                seen.clear();
                current = Some(TaskInProgress {
                    header,
                    period,
                    deadline: deadline.unwrap_or(period),
                    spans: record.then(|| TaskSpans {
                        header,
                        ..TaskSpans::default()
                    }),
                });
            }
            "node" => {
                let t = current
                    .as_mut()
                    .ok_or_else(|| directive.error(line_no, OUTSIDE))?;
                let name = args
                    .first()
                    .ok_or_else(|| directive.error(line_no, "`node` requires a name"))?;
                let wcet_tok = args
                    .get(1)
                    .ok_or_else(|| directive.error(line_no, "`node` requires a wcet"))?;
                let wcet: u64 = wcet_tok
                    .text
                    .parse()
                    .map_err(|_| wcet_tok.error(line_no, "invalid wcet integer"))?;
                expect_end(args.get(2), line_no)?;
                match names.entry(name.text) {
                    Entry::Occupied(_) => {
                        return Err(ParseTaskError::DuplicateName {
                            line: line_no,
                            span: name.span(line_no),
                            name: name.text.to_owned(),
                        })
                    }
                    Entry::Vacant(slot) => slot.insert(NodeId::from_index(wcets.len())),
                };
                wcets.push(wcet);
                if let Some(s) = &mut t.spans {
                    s.names.push(name.text.to_owned());
                    s.nodes.push(line_span(line_no, &toks));
                }
            }
            kind @ ("edge" | "blocking") => {
                let t = current
                    .as_mut()
                    .ok_or_else(|| directive.error(line_no, OUTSIDE))?;
                let from = lookup(&names, args.first(), line_no, directive)?;
                let to = lookup(&names, args.get(1), line_no, directive)?;
                expect_end(args.get(2), line_no)?;
                let is_edge = kind == "edge";
                if let Some(s) = &mut t.spans {
                    let site = line_span(line_no, &toks);
                    let invalid = |source| ParseTaskError::Graph {
                        line: line_no,
                        span: site,
                        source,
                    };
                    if from == to {
                        return Err(invalid(GraphError::SelfLoop(from)));
                    }
                    if is_edge && !seen.insert((from, to)) {
                        return Err(invalid(GraphError::DuplicateEdge(from, to)));
                    }
                    if !is_edge {
                        s.blocking.push((from.index(), site));
                    }
                }
                if is_edge { &mut edges } else { &mut pairs }.push((from, to));
            }
            "end" => {
                expect_end(args.first(), line_no)?;
                let t = current
                    .take()
                    .ok_or_else(|| directive.error(line_no, "`end` without an open task"))?;
                let end_span = directive.span(line_no);
                let dag = Dag::from_lists(&wcets, &edges, &pairs).map_err(|source| {
                    // Point at the declaration of the first involved node
                    // when the error names one (GraphError::nodes).
                    let span = source
                        .nodes()
                        .first()
                        .and_then(|&v| t.spans.as_ref()?.node(v))
                        .unwrap_or(end_span);
                    ParseTaskError::Graph {
                        line: span.line,
                        span,
                        source,
                    }
                })?;
                let task = Task::new(dag, t.period, t.deadline).map_err(|source| {
                    ParseTaskError::Timing {
                        line: t.header.line,
                        span: t.header,
                        source,
                    }
                })?;
                tasks.push(task);
                spans.extend(t.spans);
            }
            other => return Err(directive.error(line_no, format!("unknown directive `{other}`"))),
        }
    }
    if let Some(t) = current {
        return Err(syntax(
            t.header.line,
            t.header,
            "unterminated task block (missing `end`)",
        ));
    }
    let backend = backend.map_or(SyncBackend::Suspend, |(b, _)| b);
    Ok((
        TaskSet::new(tasks).with_backend(backend),
        SourceSpans { tasks: spans },
    ))
}

/// Writes a task set in the text format (nodes named `v0`, `v1`, … in id
/// order). [`parse_task_set`] of the output reproduces the set.
#[must_use]
pub fn write_task_set(set: &TaskSet) -> String {
    let mut out = String::from("# rtpool task set (priority order: first task = highest)\n");
    // Emitted only for spin so suspend output is byte-identical to the
    // pre-backend format (absence means suspend on the way back in).
    if set.backend() == SyncBackend::Spin {
        out.push_str("backend spin\n");
    }
    for (_, task) in set.iter() {
        let dag = task.dag();
        let _ = writeln!(
            out,
            "task period={} deadline={}",
            task.period(),
            task.deadline()
        );
        for v in dag.node_ids() {
            let _ = writeln!(out, "  node v{} {}", v.index(), dag.wcet(v));
        }
        for v in dag.node_ids() {
            for s in dag.successors(v) {
                let _ = writeln!(out, "  edge v{} v{}", v.index(), s.index());
            }
        }
        for region in dag.blocking_regions() {
            let _ = writeln!(
                out,
                "  blocking v{} v{}",
                region.fork().index(),
                region.join().index()
            );
        }
        out.push_str("end\n");
    }
    out
}

struct TaskInProgress {
    header: Span,
    period: u64,
    deadline: u64,
    /// Declaration sites, when the caller asked for them.
    spans: Option<TaskSpans>,
}

fn lookup(
    names: &HashMap<&str, NodeId>,
    word: Option<&Tok<'_>>,
    line: usize,
    directive: Tok<'_>,
) -> Result<NodeId, ParseTaskError> {
    let tok = word.ok_or_else(|| directive.error(line, "missing node name"))?;
    names
        .get(tok.text)
        .copied()
        .ok_or_else(|| ParseTaskError::UnknownName {
            line,
            span: tok.span(line),
            name: tok.text.to_owned(),
        })
}

fn syntax(line: usize, span: Span, message: impl Into<String>) -> ParseTaskError {
    ParseTaskError::Syntax {
        line,
        span,
        message: message.into(),
    }
}

fn expect_end(extra: Option<&Tok<'_>>, line: usize) -> Result<(), ParseTaskError> {
    match extra {
        None => Ok(()),
        Some(tok) => Err(tok.error(line, format!("unexpected trailing `{}`", tok.text))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use rtpool_graph::NodeKind;

    const FIGURE_1A: &str = "
# Figure 1(a)
task period=200 deadline=150
  node v1 10
  node v2 20
  node v3 30
  node v4 20
  node v5 10
  edge v1 v2
  edge v1 v3
  edge v1 v4
  edge v2 v5
  edge v3 v5
  edge v4 v5
  blocking v1 v5
end
";

    #[test]
    fn parses_figure_1a() {
        let set = parse_task_set(FIGURE_1A).unwrap();
        assert_eq!(set.len(), 1);
        let task = set.task(TaskId(0));
        assert_eq!(task.period(), 200);
        assert_eq!(task.deadline(), 150);
        assert_eq!(task.volume(), 90);
        let dag = task.dag();
        assert_eq!(dag.kind(dag.source()), NodeKind::BlockingFork);
        assert_eq!(dag.kind(dag.sink()), NodeKind::BlockingJoin);
        assert_eq!(dag.blocking_regions().len(), 1);
    }

    #[test]
    fn deadline_defaults_to_period() {
        let set = parse_task_set("task period=50\n node a 1\nend\n").unwrap();
        assert_eq!(set.task(TaskId(0)).deadline(), 50);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let set = parse_task_set(FIGURE_1A).unwrap();
        let text = write_task_set(&set);
        let back = parse_task_set(&text).unwrap();
        assert_eq!(back.len(), set.len());
        let (a, b) = (set.task(TaskId(0)), back.task(TaskId(0)));
        assert_eq!(a.period(), b.period());
        assert_eq!(a.deadline(), b.deadline());
        assert_eq!(a.volume(), b.volume());
        assert_eq!(a.critical_path_length(), b.critical_path_length());
        assert_eq!(
            a.dag().blocking_regions().len(),
            b.dag().blocking_regions().len()
        );
        assert_eq!(a.dag().edge_count(), b.dag().edge_count());
    }

    #[test]
    fn multiple_tasks_keep_order() {
        let text = "task period=10\n node a 1\nend\ntask period=20\n node a 2\nend\n";
        let set = parse_task_set(text).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.task(TaskId(0)).period(), 10);
        assert_eq!(set.task(TaskId(1)).period(), 20);
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        type Case = (&'static str, fn(&ParseTaskError) -> bool);
        let cases: Vec<Case> = vec![
            ("node a 1\n", |e| {
                matches!(e, ParseTaskError::Syntax { line: 1, .. })
            }),
            ("task period=10\n node a 1\n edge a b\nend\n", |e| {
                matches!(e, ParseTaskError::UnknownName { line: 3, .. })
            }),
            ("task period=10\n node a 1\n node a 2\nend\n", |e| {
                matches!(e, ParseTaskError::DuplicateName { line: 3, .. })
            }),
            ("task period=10\n node a x\nend\n", |e| {
                matches!(e, ParseTaskError::Syntax { line: 2, .. })
            }),
            ("task period=0\n node a 1\nend\n", |e| {
                matches!(e, ParseTaskError::Timing { .. })
            }),
            ("task period=10\n node a 1\n", |e| {
                matches!(e, ParseTaskError::Syntax { line: 1, .. })
            }),
            ("task period=10 bogus=1\n node a 1\nend\n", |e| {
                matches!(e, ParseTaskError::Syntax { line: 1, .. })
            }),
            ("end\n", |e| {
                matches!(e, ParseTaskError::Syntax { line: 1, .. })
            }),
            (
                "task period=10\n node a 1\n node b 1\n edge a b\n edge b a\nend\n",
                |e| matches!(e, ParseTaskError::Graph { .. }),
            ),
        ];
        for (text, check) in cases {
            let err = parse_task_set(text).unwrap_err();
            assert!(check(&err), "unexpected error {err:?} for {text:?}");
            assert!(!err.to_string().is_empty());
            let span = err.span();
            assert!(span.line >= 1 && span.col >= 1 && span.len >= 1, "{span:?}");
        }
    }

    #[test]
    fn spans_point_at_offending_tokens() {
        // Unknown name: span covers the `b` token of `edge a b`.
        let err = parse_task_set("task period=10\n node a 1\n edge a b\nend\n").unwrap_err();
        assert_eq!(err.span(), Span::new(3, 9, 1));
        // Duplicate name: span covers the second `a`.
        let err = parse_task_set("task period=10\n node a 1\n node a 2\nend\n").unwrap_err();
        assert_eq!(err.span(), Span::new(3, 7, 1));
        // Bad wcet: span covers the `x`.
        let err = parse_task_set("task period=10\n node a x\nend\n").unwrap_err();
        assert_eq!(err.span(), Span::new(2, 9, 1));
        // Bad key=value: span covers `bogus=1`.
        let err = parse_task_set("task period=10 bogus=1\n node a 1\nend\n").unwrap_err();
        assert_eq!(err.span(), Span::new(1, 16, 7));
    }

    #[test]
    fn build_errors_point_at_involved_node() {
        // Two sources: the error names the offending nodes; the span must
        // point at a `node` declaration, not at `end`.
        let err = parse_task_set("task period=10\n node a 1\n node b 1\nend\n").unwrap_err();
        match &err {
            ParseTaskError::Graph { span, source, .. } => {
                assert!(!source.nodes().is_empty());
                assert!(span.line == 2 || span.line == 3, "span {span:?}");
            }
            other => panic!("expected graph error, got {other:?}"),
        }
    }

    #[test]
    fn source_spans_cover_all_entities() {
        let (set, spans) = parse_task_set_with_spans(FIGURE_1A).unwrap();
        assert_eq!(spans.len(), set.len());
        assert!(!spans.is_empty());
        let t = spans.task(TaskId(0));
        assert_eq!(t.header().line, 3);
        let dag = set.task(TaskId(0)).dag();
        for v in dag.node_ids() {
            let span = t.node(v).unwrap();
            assert!(span.line >= 4 && span.col >= 1);
            assert!(t.name(v).is_some());
        }
        assert_eq!(t.name(NodeId::from_index(0)), Some("v1"));
        // The blocking declaration of the fork (v1 = node 0).
        let decl = t.blocking_decl(NodeId::from_index(0)).unwrap();
        assert_eq!(decl.line, 15);
        assert!(t.blocking_decl(NodeId::from_index(4)).is_none());
        // Iteration yields one map per task.
        assert_eq!(spans.iter().count(), 1);
    }

    #[test]
    fn backend_directive_round_trips() {
        // Absent directive = suspend, and suspend output never emits one.
        let suspend = parse_task_set(FIGURE_1A).unwrap();
        assert_eq!(suspend.backend(), SyncBackend::Suspend);
        assert!(!write_task_set(&suspend).contains("backend"));

        // Explicit suspend parses but is normalized away on write.
        let explicit = parse_task_set("backend suspend\ntask period=10\n node a 1\nend\n").unwrap();
        assert_eq!(explicit.backend(), SyncBackend::Suspend);

        // Spin round-trips through the header syntax.
        let spin_text = format!("backend spin\n{FIGURE_1A}");
        let spin = parse_task_set(&spin_text).unwrap();
        assert_eq!(spin.backend(), SyncBackend::Spin);
        let rewritten = write_task_set(&spin);
        assert!(rewritten.contains("backend spin\n"));
        let back = parse_task_set(&rewritten).unwrap();
        assert_eq!(back.backend(), SyncBackend::Spin);
        assert_eq!(back.task(TaskId(0)).volume(), 90);
    }

    #[test]
    fn backend_directive_placement_is_enforced() {
        // Inside a task block.
        let err = parse_task_set("task period=10\n backend spin\n node a 1\nend\n").unwrap_err();
        assert!(
            matches!(err, ParseTaskError::Syntax { line: 2, .. }),
            "{err}"
        );
        // After a task.
        let err = parse_task_set("task period=10\n node a 1\nend\nbackend spin\n").unwrap_err();
        assert!(
            matches!(err, ParseTaskError::Syntax { line: 4, .. }),
            "{err}"
        );
        // Declared twice.
        let err = parse_task_set("backend spin\nbackend spin\ntask period=10\n node a 1\nend\n")
            .unwrap_err();
        assert!(
            matches!(err, ParseTaskError::Syntax { line: 2, .. }),
            "{err}"
        );
        // Unknown operand points at the operand token.
        let err = parse_task_set("backend futex\ntask period=10\n node a 1\nend\n").unwrap_err();
        assert_eq!(err.span(), Span::new(1, 9, 5));
        // Missing operand.
        let err = parse_task_set("backend\ntask period=10\n node a 1\nend\n").unwrap_err();
        assert!(
            matches!(err, ParseTaskError::Syntax { line: 1, .. }),
            "{err}"
        );
        // Trailing junk.
        let err =
            parse_task_set("backend spin extra\ntask period=10\n node a 1\nend\n").unwrap_err();
        assert!(
            matches!(err, ParseTaskError::Syntax { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# heading\n\ntask period=10 # trailing comment\n node a 1\nend\n";
        assert_eq!(parse_task_set(text).unwrap().len(), 1);
    }

    #[test]
    fn spans_count_chars_not_bytes() {
        // `début` (6 chars / 7 bytes) precedes the wcet token: a
        // byte-counting tokenizer would report col 14, not 13.
        let text = "task period=10\n  node début 1\n  node bêta 2\n  edge début bêta\nend\n";
        let (set, spans) = parse_task_set_with_spans(text).unwrap();
        let t = spans.task(TaskId(0));
        assert_eq!(t.name(NodeId::from_index(0)), Some("début"));
        // Whole-directive span of `  node début 1`: 14 bytes of content
        // after the 2-space indent, but 12 characters.
        let d = t.node(NodeId::from_index(0)).unwrap();
        assert_eq!((d.line, d.col, d.len), (2, 3, 12));
        // `  node bêta 2` = 11 chars from col 3 (12 bytes would be wrong).
        let b = t.node(NodeId::from_index(1)).unwrap();
        assert_eq!((b.line, b.col, b.len), (3, 3, 11));
        assert_eq!(set.task(TaskId(0)).dag().node_count(), 2);
    }

    #[test]
    fn error_spans_after_multibyte_names_are_char_addressed() {
        // The bad wcet token follows a 2-byte-per-char name; its column
        // must still be the character column.
        let text = "task period=10\n  node nœud xx\nend\n";
        let err = parse_task_set(text).unwrap_err();
        let span = err.span();
        // `  node nœud xx`: cols 1-2 indent, `node` at 3, `nœud` at 8,
        // `xx` at 13 (byte offset would be 14).
        assert_eq!((span.line, span.col, span.len), (2, 13, 2));
    }

    #[test]
    fn tokenizer_columns_are_character_columns() {
        let mut toks = Vec::new();
        assert_eq!(tokenize_line("  node bêta 2\nend\n", &mut toks), 15);
        assert_eq!(toks.len(), 3);
        assert_eq!((toks[0].col(), toks[0].text), (3, "node"));
        assert_eq!((toks[1].col(), toks[1].text), (8, "bêta"));
        assert_eq!((toks[2].col(), toks[2].text), (13, "2"));
        assert_eq!(toks[1].span(1), Span::new(1, 8, 4));
    }

    #[test]
    fn declaration_errors_win_over_later_errors_through_both_entry_points() {
        let graph_error = |line, span, source| ParseTaskError::Graph { line, span, source };
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
        let cases = [
            // A repeated edge, then an unknown name two lines on.
            (
                "task period=10\n node a 1\n node b 1\n edge a b\n edge a b\n edge a zz\nend\n",
                graph_error(5, Span::new(5, 2, 8), GraphError::DuplicateEdge(a, b)),
            ),
            // The same repeat with nothing after it: the fast pass only
            // finds it at `end`.
            (
                "task period=10\n node a 1\n node b 1\n edge a b\n edge a b\nend\n",
                graph_error(5, Span::new(5, 2, 8), GraphError::DuplicateEdge(a, b)),
            ),
            // A self-loop region, then an unknown name.
            (
                "task period=10\n node a 1\n blocking a a\n edge a zz\nend\n",
                graph_error(3, Span::new(3, 2, 12), GraphError::SelfLoop(a)),
            ),
            (
                "task period=10\n node a 1\n edge a a\nend\n",
                graph_error(3, Span::new(3, 2, 8), GraphError::SelfLoop(a)),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(parse_task_set(text).unwrap_err(), want, "{text:?}");
            assert_eq!(
                parse_task_set_with_spans(text).unwrap_err(),
                want,
                "{text:?}"
            );
        }
    }

    /// The tokenizer before the byte scan, kept as the reference the scan
    /// must agree with: one `char` at a time, over one of `str::lines`.
    fn tokenize_by_chars<'a>(raw: &'a str, toks: &mut Vec<Tok<'a>>) {
        toks.clear();
        let mut start = None;
        for (byte, ch) in raw.char_indices() {
            if ch == '#' || ch.is_whitespace() {
                if let Some(from) = start.take() {
                    toks.push(Tok {
                        before: &raw[..from],
                        text: &raw[from..byte],
                    });
                }
                if ch == '#' {
                    return;
                }
            } else if start.is_none() {
                start = Some(byte);
            }
        }
        if let Some(from) = start {
            toks.push(Tok {
                before: &raw[..from],
                text: &raw[from..],
            });
        }
    }

    /// What a text is made of: ASCII words and blanks, every ASCII byte
    /// `char::is_whitespace` accepts and some it does not (`\x1C`–`\x1F`),
    /// non-ASCII whitespace, `#`, multibyte names, and line ends.
    const PIECES: [&str; 29] = [
        "node", "v12", "=", " ", "\t", "\r", "\x0B", "\x0C", "\x1C", "\x1F", "\u{85}", "\u{A0}",
        "\u{1680}", "\u{2003}", "\u{2028}", "\u{3000}", "#", "é", "bêta", "nœud", "≥", "🦀",
        "\u{200B}", "\u{FEFF}", "x", "  ", "\n", "\r\n", "\n\n",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]
        #[test]
        fn byte_tokenizer_agrees_with_the_char_tokenizer(
            pieces in proptest::collection::vec(0usize..PIECES.len(), 0..40)
        ) {
            let text: String = pieces.into_iter().map(|i| PIECES[i]).collect();
            let view = |toks: &[Tok<'_>]| -> Vec<(usize, String, String)> {
                toks.iter()
                    .map(|t| (t.col(), t.before.to_owned(), t.text.to_owned()))
                    .collect()
            };
            let mut toks = Vec::new();
            let want: Vec<_> = text
                .lines()
                .map(|line| {
                    tokenize_by_chars(line, &mut toks);
                    view(&toks)
                })
                .collect();
            let (mut got, mut rest) = (Vec::new(), text.as_str());
            while !rest.is_empty() {
                rest = &rest[tokenize_line(rest, &mut toks)..];
                got.push(view(&toks));
            }
            proptest::prop_assert_eq!(got, want, "{:?}", text);
        }
    }
}
