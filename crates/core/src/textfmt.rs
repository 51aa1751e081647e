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
//!   identifiers unique within the task. Names that share a prefix and
//!   count up from the first one's number (`v0 v1 …`, `v1 v2 …`) are
//!   resolved from their digits without hashing; any other name goes
//!   through a keyed hash map.
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

/// A whitespace-separated token as byte offsets into its [`Line`].
#[derive(Clone, Copy, Debug)]
struct Tok {
    from: usize,
    to: usize,
}

/// One line of input and a cursor over its tokens. `text` runs from the
/// line's first byte to the end of the input, and the line ends at its
/// first `\n`. Tokens are read one at a time ([`Line::next`]), so a line
/// is scanned once and never split into a list. The 1-based column of a
/// token is counted from the text before it only when a span is asked
/// for, so lines that raise no error and record no site never count.
#[derive(Clone, Copy, Debug)]
struct Line<'a> {
    no: usize,
    text: &'a str,
    /// Where the next token is looked for.
    at: usize,
    /// The first token's start and the latest token's end: a directive's
    /// span covers both.
    first: usize,
    last: usize,
}

impl<'a> Line<'a> {
    fn new(no: usize, text: &'a str) -> Self {
        Line {
            no,
            text,
            at: 0,
            first: 0,
            last: 0,
        }
    }

    /// The line's next token, or `None` where its tokens end: at its
    /// `\n`, a `#` or the end of the input. Tokens split where
    /// [`char::is_whitespace`] says. Runs of blanks are skipped by
    /// [`CLASS`]. A word's first eight bytes are looked at in one step,
    /// which ends it at its first byte that is not plain ASCII
    /// ([`not_plain`]); from there [`CLASS`] reads on byte by byte,
    /// decoding a `char` only where a byte is not ASCII (`.rtp` keywords
    /// and numbers are ASCII; names need not be). A `\r` before the `\n`
    /// is a blank, so lines split as [`str::lines`] splits them.
    fn next(&mut self) -> Option<Tok> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let mut at = self.at;
        loop {
            match bytes.get(at).map(|&b| CLASS[usize::from(b)]) {
                Some(BLANK) => at += 1,
                Some(WORD) => break,
                Some(WIDE) => match wide(text, at) {
                    (true, width) => at += width,
                    (false, _) => break,
                },
                _ => {
                    self.at = at;
                    return None;
                }
            }
        }
        let from = at;
        // Plain bytes end a word only at a blank or a stop: eight are
        // looked at in one step, and the rest byte by byte.
        if let Some(eight) = bytes.get(at..at + 8) {
            let word = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
            at += (not_plain(word).trailing_zeros() / 8) as usize;
        }
        loop {
            match bytes.get(at).map(|&b| CLASS[usize::from(b)]) {
                Some(WORD) => at += 1,
                Some(WIDE) => match wide(text, at) {
                    (false, width) => at += width,
                    (true, _) => break,
                },
                _ => break,
            }
        }
        if self.last == 0 {
            self.first = from;
        }
        (self.at, self.last) = (at, at);
        Some(Tok { from, to: at })
    }

    /// The line's length in bytes through its `\n`, once its tokens have
    /// been read.
    fn len(&self) -> usize {
        let rest = &self.text.as_bytes()[self.at..];
        rest.iter()
            .position(|&b| b == b'\n')
            .map_or(self.text.len(), |newline| self.at + newline + 1)
    }

    #[inline]
    fn word(&self, tok: Tok) -> &'a str {
        &self.text[tok.from..tok.to]
    }

    /// `tok`'s bytes as one little-endian word, zero above them, when
    /// it is at most eight bytes long and eight bytes of the input start
    /// at it: one load, which [`Line::integer`] and [`Names`] read
    /// digits from a word at a time.
    #[inline]
    fn head(&self, tok: Tok) -> Option<u64> {
        let len = tok.to - tok.from;
        let eight = self.text.as_bytes().get(tok.from..tok.from + 8)?;
        let word = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        (len <= 8).then(|| word & u64::MAX >> (64 - 8 * len))
    }

    fn bytes(&self, tok: Tok) -> &'a [u8] {
        &self.text.as_bytes()[tok.from..tok.to]
    }

    /// `tok` as a node name.
    fn name(&self, tok: Tok) -> Name<'a> {
        Name {
            text: self.word(tok),
            head: self.head(tok),
        }
    }

    /// `tok` as an unsigned integer, read as `str::parse::<u64>` reads
    /// it: decimal digits after an optional `+`. Up to eight digits are
    /// checked and valued a word at a time ([`eight_digits`]).
    #[inline]
    fn integer(&self, tok: Tok) -> Option<u64> {
        if let Some(head) = self.head(tok) {
            if let Some(value) = eight_digits(head, tok.to - tok.from) {
                return Some(value);
            }
        }
        let word = self.bytes(tok);
        decimal(word.strip_prefix(b"+").unwrap_or(word))
    }

    fn col(&self, tok: Tok) -> usize {
        self.text[..tok.from].chars().count() + 1
    }

    fn span(&self, tok: Tok) -> Span {
        Span::new(self.no, self.col(tok), self.word(tok).chars().count())
    }

    /// The span covering the directive read so far (first through latest
    /// token).
    fn directive_span(&self) -> Span {
        let col = self.text[..self.first].chars().count() + 1;
        let len = self.text[self.first..self.last].chars().count();
        Span::new(self.no, col, len)
    }

    /// A syntax error pointing at `tok`.
    #[cold]
    fn error(&self, tok: Tok, message: impl Into<String>) -> ParseTaskError {
        syntax(self.no, self.span(tok), message)
    }
}

/// A byte's class for [`Line::next`]: part of a word, a blank, the end of
/// the line's tokens (`\n` or `#`), or the first byte of a multibyte
/// `char` that must be decoded to be classed.
const WORD: u8 = 0;
const BLANK: u8 = 1;
const STOP: u8 = 2;
const WIDE: u8 = 3;

/// [`WORD`], [`BLANK`], [`STOP`] or [`WIDE`] for every byte. The blanks
/// are the ASCII bytes [`char::is_whitespace`] accepts; unlike
/// [`u8::is_ascii_whitespace`] that includes `\x0B`.
static CLASS: [u8; 256] = {
    let mut class = [WORD; 256];
    class[b'\t' as usize] = BLANK;
    class[0x0B] = BLANK;
    class[0x0C] = BLANK;
    class[b'\r' as usize] = BLANK;
    class[b' ' as usize] = BLANK;
    class[b'\n' as usize] = STOP;
    class[b'#' as usize] = STOP;
    let mut b = 0x80;
    while b < 256 {
        class[b] = WIDE;
        b += 1;
    }
    class
};

/// Whether the `char` at byte `at` of `text` is whitespace, and its width.
fn wide(text: &str, at: usize) -> (bool, usize) {
    let ch = text[at..].chars().next().expect("`at` is a char boundary");
    (ch.is_whitespace(), ch.len_utf8())
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
/// Each line is read in one pass: its directive and the three tokens
/// after it ([`Line::next`]), the directive matched on its bytes, node
/// names resolved and integers valued from their digits ([`Names`],
/// [`Line::integer`]). The operands are then checked in the order they
/// come, so the first one that fails is the error.
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
    // Reused across tasks, cleared when a task opens; names are slices of
    // `input`. The recording pass's edge set keeps std's keyed hasher, as
    // `Names` does: the text comes from outside.
    let mut names = Names::default();
    let (mut wcets, mut edges, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();

    let (mut rest, mut no) = (input, 0);
    while !rest.is_empty() {
        no += 1;
        let mut line = Line::new(no, rest);
        // The directive and the tokens after it, as many as any directive
        // but `task` takes and one more: a token past a directive's last
        // operand is an error.
        let mut toks = [None; 4];
        for tok in &mut toks {
            *tok = line.next();
        }
        let [Some(directive), first, second, third] = toks else {
            rest = &rest[line.len()..];
            continue;
        };
        match line.bytes(directive) {
            // The commonest directives first: a `match` on bytes tries its
            // arms in order.
            kind @ (b"edge" | b"blocking") => {
                let t = current
                    .as_mut()
                    .ok_or_else(|| line.error(directive, OUTSIDE))?;
                let from = lookup(&names, &line, first, directive)?;
                let to = lookup(&names, &line, second, directive)?;
                expect_end(&line, third)?;
                let is_edge = kind == b"edge";
                if let Some(s) = &mut t.spans {
                    let site = line.directive_span();
                    let invalid = |source| ParseTaskError::Graph {
                        line: no,
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
            b"node" => {
                let t = current
                    .as_mut()
                    .ok_or_else(|| line.error(directive, OUTSIDE))?;
                let name = first.ok_or_else(|| line.error(directive, "`node` requires a name"))?;
                let wcet_tok =
                    second.ok_or_else(|| line.error(directive, "`node` requires a wcet"))?;
                let wcet = line
                    .integer(wcet_tok)
                    .ok_or_else(|| line.error(wcet_tok, "invalid wcet integer"))?;
                expect_end(&line, third)?;
                if !names.declare(line.name(name), wcets.len()) {
                    return Err(ParseTaskError::DuplicateName {
                        line: no,
                        span: line.span(name),
                        name: line.word(name).to_owned(),
                    });
                }
                wcets.push(wcet);
                if let Some(s) = &mut t.spans {
                    s.names.push(line.word(name).to_owned());
                    s.nodes.push(line.directive_span());
                }
            }
            b"task" => {
                if let Some(t) = &current {
                    return Err(line.error(
                        directive,
                        format!(
                            "`task` inside an unterminated task block (opened on line {})",
                            t.header.line
                        ),
                    ));
                }
                let mut period: Option<u64> = None;
                let mut deadline: Option<u64> = None;
                // Every token of the line is an operand.
                let mut operands = [first, second, third].into_iter().flatten();
                while let Some(kv) = operands.next().or_else(|| line.next()) {
                    let text = line.word(kv);
                    let (key, value) = text.split_once('=').ok_or_else(|| {
                        line.error(kv, format!("expected key=value, got `{text}`"))
                    })?;
                    let value: u64 = value.parse().map_err(|_| {
                        line.error(kv, format!("invalid integer `{value}` for `{key}`"))
                    })?;
                    match key {
                        "period" => period = Some(value),
                        "deadline" => deadline = Some(value),
                        other => return Err(line.error(kv, format!("unknown key `{other}`"))),
                    }
                }
                let header = line.directive_span();
                let period =
                    period.ok_or_else(|| syntax(no, header, "`task` requires period=<int>"))?;
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
            b"end" => {
                expect_end(&line, first)?;
                let t = current
                    .take()
                    .ok_or_else(|| line.error(directive, "`end` without an open task"))?;
                let end_span = line.span(directive);
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
            b"backend" => {
                if current.is_some() {
                    return Err(line.error(
                        directive,
                        "`backend` is file-level and cannot appear inside a task block",
                    ));
                }
                if !tasks.is_empty() {
                    return Err(line.error(directive, "`backend` must precede every task"));
                }
                if let Some((_, prev)) = backend {
                    return Err(line.error(
                        directive,
                        format!("`backend` already declared on line {prev}"),
                    ));
                }
                let which = first.ok_or_else(|| {
                    line.error(directive, "`backend` requires `suspend` or `spin`")
                })?;
                let b = SyncBackend::parse(line.word(which)).ok_or_else(|| {
                    line.error(
                        which,
                        format!(
                            "unknown backend `{}` (expected `suspend` or `spin`)",
                            line.word(which)
                        ),
                    )
                })?;
                expect_end(&line, second)?;
                backend = Some((b, no));
            }
            _ => {
                let other = line.word(directive);
                return Err(line.error(directive, format!("unknown directive `{other}`")));
            }
        }
        rest = &rest[line.len()..];
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

/// A node name, and its bytes as [`Line::head`] loads them when it can.
#[derive(Clone, Copy, Debug)]
struct Name<'a> {
    text: &'a str,
    head: Option<u64>,
}

/// One task's node names. While every name is one prefix followed by the
/// decimal digits of its id plus one offset, both taken from the first
/// name (`v0 v1 …`, `v1 v2 …`; digits without a leading zero), the names
/// are distinct by construction and nothing is stored or hashed: a
/// reference is resolved from its digits and one comparison of its
/// prefix, a word at a time for a name of at most eight bytes. The first
/// name off that numbering ends it; the nodes before it stay resolved by
/// number, and a map keyed by std's `RandomState` holds the names from it
/// on (the text comes from outside).
#[derive(Default)]
struct Names<'a> {
    /// What every numbered name has before its digits.
    prefix: &'a str,
    /// The prefix's bytes as one word when it is shorter than eight.
    prefix_word: Option<u64>,
    /// The first name's number.
    offset: u64,
    /// Nodes `0..numbered` follow the numbering.
    numbered: usize,
    /// Whether a name has broken the numbering.
    broken: bool,
    /// The names from the first one off the numbering on.
    keyed: HashMap<&'a str, NodeId>,
}

impl<'a> Names<'a> {
    /// Forgets every name; the first name declared next sets the
    /// numbering's prefix and offset.
    fn clear(&mut self) {
        self.numbered = 0;
        self.broken = false;
        self.keyed.clear();
    }

    /// Declares `name` as node `id` (the count of names so far); `false`
    /// if it is already declared.
    fn declare(&mut self, name: Name<'a>, id: usize) -> bool {
        if !self.broken {
            if id == 0 {
                if let Some((prefix, number)) = numbered(name.text) {
                    (self.prefix, self.offset, self.numbered) = (prefix, number, 1);
                    self.prefix_word = (prefix.len() < 8).then(|| {
                        let bytes = prefix.bytes().rev();
                        bytes.fold(0, |word, b| word << 8 | u64::from(b))
                    });
                    return true;
                }
            } else if self.id_by_number(name) == Some(id) {
                self.numbered += 1;
                return true;
            }
            self.broken = true;
        }
        if self.by_number(name).is_some() {
            return false;
        }
        match self.keyed.entry(name.text) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(NodeId::from_index(id));
                true
            }
        }
    }

    #[inline]
    fn get(&self, name: Name<'_>) -> Option<NodeId> {
        match self.by_number(name) {
            Some(id) => Some(NodeId::from_index(id)),
            None => self.keyed.get(name.text).copied(),
        }
    }

    /// The numbered node named `name`, if there is one.
    #[inline]
    fn by_number(&self, name: Name<'_>) -> Option<usize> {
        self.id_by_number(name).filter(|&id| id < self.numbered)
    }

    /// The id the numbering gives `name`, declared or not. The prefix is
    /// empty or ends in a non-digit, so `name` is numbered exactly when
    /// it is the prefix followed by a [`number`]. With the name's bytes
    /// in one word, the prefix is one masked comparison and the digits
    /// one [`eight_digits`].
    #[inline(always)]
    fn id_by_number(&self, name: Name<'_>) -> Option<usize> {
        let number = match (name.head, self.prefix_word) {
            (Some(head), Some(prefix)) => {
                let (len, skip) = (name.text.len(), self.prefix.len());
                let digits = head.checked_shr(8 * skip as u32).unwrap_or(0);
                if len <= skip || head ^ digits << (8 * skip) != prefix {
                    return None;
                }
                let leading_zero = len - skip > 1 && digits & 0xFF == u64::from(b'0');
                eight_digits(digits, len - skip).filter(|_| !leading_zero)?
            }
            _ => {
                let digits = name.text.as_bytes().get(self.prefix.len()..)?;
                if name
                    .text
                    .bytes()
                    .zip(self.prefix.bytes())
                    .any(|(a, b)| a != b)
                {
                    return None;
                }
                number(digits)?
            }
        };
        usize::try_from(number.checked_sub(self.offset)?).ok()
    }
}

/// `name` split into what precedes its trailing decimal digits and their
/// [`number`], if it has one.
fn numbered(name: &str) -> Option<(&str, u64)> {
    let digits = name.bytes().rev().take_while(u8::is_ascii_digit).count();
    // The digits are ASCII, so the split is a char boundary.
    let (prefix, digits) = name.split_at(name.len() - digits);
    Some((prefix, number(digits.as_bytes())?))
}

/// The value of `digits` if they are decimal digits with no leading zero
/// (`0` itself aside) and it fits a `u64`: the one way to write a number.
fn number(digits: &[u8]) -> Option<u64> {
    if let [b'0', _, ..] = digits {
        return None;
    }
    decimal(digits)
}

const LOW7: u64 = u64::from_ne_bytes([0x7F; 8]);
const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);

/// Eight copies of `b`.
const fn bytes_of(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// The high bit of each byte of `word` (little-endian) that is not a
/// plain word byte: printable ASCII other than the space and `#`. Adding
/// `0x80 - c` to a byte below `0x80` sets its high bit exactly when the
/// byte is at least `c`, and carries into no other byte.
#[inline]
fn not_plain(word: u64) -> u64 {
    let low = word & LOW7;
    let printable = (low + bytes_of(0x80 - b'!')) & !(low + bytes_of(0x80 - 0x7F)) & HIGH;
    let hash = word ^ bytes_of(b'#');
    let is_hash = !(((hash & LOW7) + LOW7) | hash) & HIGH;
    (word & HIGH) | (printable ^ HIGH) | is_hash
}

/// The value of the `len` bytes of `word` (little-endian, first byte
/// lowest, zero above them) when they are 1 to 8 decimal digits. Two
/// additions find the digits, as in [`not_plain`]; the digits are then
/// moved to the top of the word, behind zeros, and folded in three
/// multiply-adds (pairs, fours, the eight) over lanes none of which can
/// carry into the next.
#[inline]
fn eight_digits(word: u64, len: usize) -> Option<u64> {
    if !(1..=8).contains(&len) {
        return None;
    }
    let low = word & LOW7;
    let digits = (low + bytes_of(0x80 - b'0')) & !(low + bytes_of(0x80 - b'9' - 1)) & !word;
    let wanted = HIGH >> (64 - 8 * len);
    if digits & wanted != wanted {
        return None;
    }
    let mut v = (word - (bytes_of(b'0') >> (64 - 8 * len))) << (64 - 8 * len);
    v = v * 10 + (v >> 8);
    v = (v & 0x00FF_00FF_00FF_00FF) * 100 + ((v >> 16) & 0x00FF_00FF_00FF_00FF);
    v = (v & 0x0000_FFFF_0000_FFFF) * 10_000 + ((v >> 32) & 0x0000_FFFF_0000_FFFF);
    Some(v & 0xFFFF_FFFF)
}

/// The value of `digits` if there is at least one, all are decimal
/// digits, and it fits a `u64`; leading zeros are read as `str::parse`
/// reads them.
#[inline]
fn decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &d| {
        let digit = d.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
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

/// `word`, an operand of `directive`, as a declared node name.
#[inline(always)]
fn lookup(
    names: &Names<'_>,
    line: &Line<'_>,
    word: Option<Tok>,
    directive: Tok,
) -> Result<NodeId, ParseTaskError> {
    let Some(tok) = word else {
        return Err(line.error(directive, "missing node name"));
    };
    names.get(line.name(tok)).ok_or_else(|| unknown(line, tok))
}

#[cold]
fn unknown(line: &Line<'_>, tok: Tok) -> ParseTaskError {
    ParseTaskError::UnknownName {
        line: line.no,
        span: line.span(tok),
        name: line.word(tok).to_owned(),
    }
}

fn syntax(line: usize, span: Span, message: impl Into<String>) -> ParseTaskError {
    ParseTaskError::Syntax {
        line,
        span,
        message: message.into(),
    }
}

/// Fails on `extra`, a token after the directive's last operand.
#[inline]
fn expect_end(line: &Line<'_>, extra: Option<Tok>) -> Result<(), ParseTaskError> {
    match extra {
        None => Ok(()),
        Some(tok) => Err(line.error(tok, format!("unexpected trailing `{}`", line.word(tok)))),
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

    /// Every token of the first line of `text`, and that line's length.
    fn tokens(text: &str) -> (Line<'_>, Vec<Tok>) {
        let mut line = Line::new(1, text);
        let toks = std::iter::from_fn(|| line.next()).collect();
        (line, toks)
    }

    #[test]
    fn tokenizer_columns_are_character_columns() {
        let text = "  node bêta 2\nend\n";
        let (line, toks) = tokens(text);
        assert_eq!(line.len(), 15);
        assert_eq!(toks.len(), 3);
        assert_eq!((line.col(toks[0]), line.word(toks[0])), (3, "node"));
        assert_eq!((line.col(toks[1]), line.word(toks[1])), (8, "bêta"));
        assert_eq!((line.col(toks[2]), line.word(toks[2])), (13, "2"));
        assert_eq!(line.span(toks[1]), Span::new(1, 8, 4));
        assert_eq!(line.directive_span(), Span::new(1, 3, 11));
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

    /// A name read byte by byte, as no line loaded it.
    impl<'a> From<&'a str> for Name<'a> {
        fn from(text: &'a str) -> Self {
            Name { text, head: None }
        }
    }

    #[test]
    fn names_resolve_by_number_until_one_breaks_the_numbering() {
        let id = NodeId::from_index;
        let mut names = Names::default();
        for (v, name) in ["n7", "n8", "n9"].into_iter().enumerate() {
            assert!(names.declare(name.into(), v));
        }
        assert!(!names.broken && names.keyed.is_empty());
        assert_eq!(names.get("n8".into()), Some(id(1)));
        // Another prefix, a padded number, out of range, no number.
        for name in ["m8", "n09", "n6", "n10", "n", "n99999999999999999999"] {
            assert_eq!(names.get(name.into()), None, "{name}");
        }
        // A repeat breaks the numbering and is still found.
        assert!(!names.declare("n8".into(), 3));
        assert!(names.broken);
        assert!(names.declare("x".into(), 3));
        assert!(names.declare("n10".into(), 4));
        assert!(!names.declare("n7".into(), 5) && !names.declare("x".into(), 5));
        assert_eq!(names.get("n8".into()), Some(id(1)));
        assert_eq!(names.get("x".into()), Some(id(3)));
        assert_eq!(names.get("n10".into()), Some(id(4)));
        names.clear();
        assert!(!names.broken && names.keyed.is_empty());
        assert!(names.declare("v000".into(), 0));
        assert!(names.broken);
        assert_eq!(names.get("v000".into()), Some(id(0)));
        assert_eq!(numbered("a18446744073709551615"), Some(("a", u64::MAX)));
        assert_eq!(numbered("bêta0"), Some(("bêta", 0)));
        for name in ["a18446744073709551616", "bêta", "v01"] {
            assert_eq!(numbered(name), None, "{name}");
        }
    }

    #[test]
    fn integers_read_as_str_parse_reads_them() {
        for text in [
            "0",
            "007",
            "+5",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "+",
            "++5",
            "-5",
            "5x",
            "x5",
            "5é",
            "",
        ] {
            let padded = format!(" {text} ");
            let (line, toks) = tokens(&padded);
            let got = toks.first().and_then(|&tok| line.integer(tok));
            assert_eq!(got, text.parse::<u64>().ok(), "{text:?}");
        }
    }

    /// The tokenizer before the byte scan, kept as the reference the scan
    /// must agree with: one `char` at a time, over one of `str::lines`.
    fn tokenize_by_chars(raw: &str) -> Vec<Tok> {
        let (mut toks, mut start) = (Vec::new(), None);
        for (byte, ch) in raw.char_indices() {
            if ch == '#' || ch.is_whitespace() {
                if let Some(from) = start.take() {
                    toks.push(Tok { from, to: byte });
                }
                if ch == '#' {
                    return toks;
                }
            } else if start.is_none() {
                start = Some(byte);
            }
        }
        if let Some(from) = start {
            toks.push(Tok {
                from,
                to: raw.len(),
            });
        }
        toks
    }

    /// What a text is made of: ASCII words and blanks, every ASCII byte
    /// `char::is_whitespace` accepts and some it does not (`\x1C`–`\x1F`),
    /// non-ASCII whitespace, `#`, multibyte names, digits (leading zeros,
    /// a sign, numbers past `u64::MAX`), directives, and line ends.
    const PIECES: [&str; 43] = [
        "node",
        "v12",
        "=",
        " ",
        "\t",
        "\r",
        "\x0B",
        "\x0C",
        "\x1C",
        "\x1F",
        "\u{85}",
        "\u{A0}",
        "\u{1680}",
        "\u{2003}",
        "\u{2028}",
        "\u{3000}",
        "#",
        "é",
        "bêta",
        "nœud",
        "≥",
        "🦀",
        "\u{200B}",
        "\u{FEFF}",
        "x",
        "  ",
        "\n",
        "\r\n",
        "\n\n",
        "0",
        "007",
        "9",
        "+",
        "18446744073709551616",
        "edge",
        "blocking",
        "task",
        "end",
        "period=",
        "# c\n",
        "v",
        "v0",
        "node1",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]
        #[test]
        fn byte_tokenizer_agrees_with_the_char_tokenizer(
            pieces in proptest::collection::vec(0usize..PIECES.len(), 0..48)
        ) {
            let text: String = pieces.into_iter().map(|i| PIECES[i]).collect();
            // Each token as its column, the text before it, its word, and
            // what it reads as: a numbered name's prefix and number, an
            // integer.
            let view = |line: &Line<'_>, tok: Tok| {
                let word = line.word(tok);
                let numbered = numbered(word).map(|(prefix, n)| (prefix.to_owned(), n));
                (line.col(tok), line.text[..tok.from].to_owned(), word.to_owned(),
                 numbered, line.integer(tok))
            };
            // The same read through `str`: the trailing digits, and
            // `str::parse`, which takes the leading zeros no name takes.
            let reference = |word: &str| {
                let digits = word.bytes().rev().take_while(u8::is_ascii_digit).count();
                let (prefix, digits) = word.split_at(word.len() - digits);
                let number = if digits.starts_with('0') && digits.len() > 1 {
                    None
                } else {
                    digits.parse::<u64>().ok()
                };
                (number.map(|n| (prefix.to_owned(), n)), word.parse::<u64>().ok())
            };
            let want: Vec<Vec<_>> = text
                .lines()
                .map(|raw| {
                    let line = Line::new(1, raw);
                    tokenize_by_chars(raw).into_iter().map(|tok| {
                        let (numbered, integer) = reference(line.word(tok));
                        (line.col(tok), raw[..tok.from].to_owned(), line.word(tok).to_owned(),
                         numbered, integer)
                    }).collect()
                })
                .collect();
            // Numberings a token is resolved against, word at a time and
            // byte by byte: one-byte, empty and multibyte prefixes.
            let numberings: Vec<Names<'_>> = ["v0", "7", "bêta0", "node1", "é12"]
                .into_iter()
                .map(|first| {
                    let mut names = Names::default();
                    assert!(names.declare(first.into(), 0));
                    names
                })
                .collect();
            let (mut got, mut rest) = (Vec::new(), text.as_str());
            while !rest.is_empty() {
                let mut line = Line::new(1, rest);
                let toks: Vec<Tok> = std::iter::from_fn(|| line.next()).collect();
                for (&tok, names) in toks.iter().flat_map(|t| numberings.iter().map(move |n| (t, n))) {
                    proptest::prop_assert_eq!(
                        names.id_by_number(line.name(tok)),
                        names.id_by_number(line.word(tok).into()),
                        "{:?} against prefix {:?}", line.word(tok), names.prefix
                    );
                }
                got.push(toks.into_iter().map(|tok| view(&line, tok)).collect::<Vec<_>>());
                rest = &rest[line.len()..];
            }
            proptest::prop_assert_eq!(got, want, "{:?}", text);
        }
    }
}
