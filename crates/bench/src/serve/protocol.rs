//! The JSON-lines admission protocol.
//!
//! One request per line in, one response per line out. The workspace
//! deliberately carries no serde dependency; a line is one flat object
//! of strings with the standard escapes, unsigned integers, booleans and
//! `null`, read through [`rtpool_trace::json::Reader`] and written with
//! `format!` templates. Both directions are implemented here — the
//! server decodes requests and encodes responses, the load generator and
//! the proptest suite do the reverse — so round-tripping is pinned
//! inside one file.
//!
//! ## Request
//!
//! ```json
//! {"id":7,"m":8,"priority":5,"deadline_us":20000,"source":"task period=100\n  node a 10\nend\n"}
//! {"id":8,"m":8,"hash":"9f3a77c04be21d55"}
//! {"id":9,"m":8,"base":"9f3a77c04be21d55","edits":"wcet:0.2=35; edge:0.1>3"}
//! ```
//!
//! `id` and `m` are required. `priority` (0–7, higher = more important,
//! default 4) orders load shedding; `deadline_us` (default: server
//! config) is the per-request service budget measured from *arrival*,
//! queueing included. The workload is one of: an inline `.rtp` `source`,
//! the hex content `hash` of a previously interned set, or — the `edit`
//! verb — a `base` hash plus an `edits` script describing a mutation of
//! that set (see [`EditScript`]), which the server applies to the
//! resident set through `Dag::edit`: a task whose ops are all `wcet:`
//! keeps its topology and derived cells, any other task is rebuilt, and
//! the script is judged by the graph it ends at, as an inline `source`
//! would be.
//!
//! ## Response
//!
//! ```json
//! {"id":7,"verdict":"admit","level":"exact","degraded":false,"latency_us":412,"hash":"9f3a77c04be21d55","detail":""}
//! ```

use std::fmt::{self, Write as _};

use rtpool_graph::{EditOp, NodeId};
use rtpool_trace::json::{escape_into, escaped_len, Reader, Value};

/// Highest wire priority (inclusive).
pub const MAX_PRIORITY: u8 = 7;
/// Priority assumed when a request does not name one.
pub const DEFAULT_PRIORITY: u8 = 4;

/// A decoded admission request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Thread-pool size `m` to analyze admission onto.
    pub m: usize,
    /// Shedding priority, `0..=MAX_PRIORITY` (higher survives overload
    /// longer).
    pub priority: u8,
    /// Service budget in microseconds from arrival; `0` = server
    /// default.
    pub deadline_us: u64,
    /// The workload itself.
    pub body: RequestBody,
}

/// How a request names its task set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestBody {
    /// Inline `.rtp` source text.
    Source(String),
    /// Content hash of a previously interned set.
    Hash(u64),
    /// The `edit` verb: a mutation of the previously interned set
    /// `base`, described by an edit script (see [`EditScript`]).
    Edit {
        /// Content hash of the base set to patch.
        base: u64,
        /// The edit script, unparsed (validated at service time).
        script: String,
    },
}

/// One operation of an `edit` script, addressed to one task of the base
/// set.
///
/// The wire syntax is `;`-separated operations (whitespace around
/// separators is ignored):
///
/// * `wcet:T.N=W` — set node `N` of task `T` to WCET `W`;
/// * `edge:T.U>V` — insert precedence edge `U -> V` in task `T`;
/// * `node:T=W@P1+P2>S1+S2` — insert a WCET-`W` node into task `T` with
///   predecessors `P1, P2` and successors `S1, S2`;
/// * `block:T.F-J=on` / `block:T.F-J=off` — declare or dissolve the
///   blocking pair `(F, J)` in task `T`.
///
/// Node indices must fit a [`NodeId`] (`u32`); a larger one is a parse
/// error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditScript {
    /// Task index within the base set.
    pub task: usize,
    /// The graph-level operation.
    pub op: EditOp,
}

/// Parses an `edits` script into per-task operations, in script order.
///
/// # Errors
///
/// Returns a human-readable description of the first malformed
/// operation.
pub fn parse_edit_script(script: &str) -> Result<Vec<EditScript>, String> {
    let mut ops = Vec::new();
    for raw in script.split(';') {
        let item = raw.trim();
        if item.is_empty() {
            continue;
        }
        let (verb, rest) = item
            .split_once(':')
            .ok_or_else(|| format!("edit op {item:?} is missing its ':'"))?;
        let op = match verb {
            "wcet" => {
                let (addr, wcet) = split2(rest, '=', item)?;
                let (task, node) = split2(&addr, '.', item)?;
                EditScript {
                    task: num(&task, item)?,
                    op: EditOp::SetWcet {
                        node: node_id(&node, item)?,
                        wcet: num64(&wcet, item)?,
                    },
                }
            }
            "edge" => {
                let (task, pair) = split2(rest, '.', item)?;
                let (from, to) = split2(&pair, '>', item)?;
                EditScript {
                    task: num(&task, item)?,
                    op: EditOp::InsertEdge {
                        from: node_id(&from, item)?,
                        to: node_id(&to, item)?,
                    },
                }
            }
            "node" => {
                let (task, spec) = split2(rest, '=', item)?;
                let (wcet, ends) = split2(&spec, '@', item)?;
                let (preds, succs) = split2(&ends, '>', item)?;
                EditScript {
                    task: num(&task, item)?,
                    op: EditOp::InsertNode {
                        wcet: num64(&wcet, item)?,
                        preds: node_list(&preds, item)?,
                        succs: node_list(&succs, item)?,
                    },
                }
            }
            "block" => {
                let (addr, state) = split2(rest, '=', item)?;
                let (task, pair) = split2(&addr, '.', item)?;
                let (fork, join) = split2(&pair, '-', item)?;
                let on = match state.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("edit op {item:?}: unknown state {other:?}")),
                };
                EditScript {
                    task: num(&task, item)?,
                    op: EditOp::SetBlocking {
                        fork: node_id(&fork, item)?,
                        join: node_id(&join, item)?,
                        on,
                    },
                }
            }
            other => return Err(format!("unknown edit verb {other:?}")),
        };
        ops.push(op);
    }
    if ops.is_empty() {
        return Err("edit script has no operations".to_string());
    }
    Ok(ops)
}

fn split2(s: &str, sep: char, ctx: &str) -> Result<(String, String), String> {
    s.split_once(sep)
        .map(|(a, b)| (a.trim().to_string(), b.trim().to_string()))
        .ok_or_else(|| format!("edit op {ctx:?} is missing its {sep:?}"))
}

fn num(s: &str, ctx: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("edit op {ctx:?}: invalid index {s:?}"))
}

fn node_id(s: &str, ctx: &str) -> Result<NodeId, String> {
    let index = num(s, ctx)?;
    u32::try_from(index)
        .map(|_| NodeId::from_index(index))
        .map_err(|_| format!("edit op {ctx:?}: invalid index {s:?}"))
}

fn num64(s: &str, ctx: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("edit op {ctx:?}: invalid value {s:?}"))
}

fn node_list(s: &str, ctx: &str) -> Result<Vec<NodeId>, String> {
    s.split('+').map(|part| node_id(part.trim(), ctx)).collect()
}

/// The verdict class of a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictKind {
    /// The task set is schedulable on the requested pool.
    Admit,
    /// The task set is not admitted (deadlock, overload, or missed
    /// response-time bound).
    Reject,
    /// The ingress queue was full — backpressure, retry later.
    Busy,
    /// The circuit breaker shed this request (priority too low while
    /// the breaker is open).
    Shed,
    /// The request could not be served (parse failure, unknown hash,
    /// worker crash beyond the recovery budget).
    Error,
}

impl VerdictKind {
    /// Wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            VerdictKind::Admit => "admit",
            VerdictKind::Reject => "reject",
            VerdictKind::Busy => "busy",
            VerdictKind::Shed => "shed",
            VerdictKind::Error => "error",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "admit" => VerdictKind::Admit,
            "reject" => VerdictKind::Reject,
            "busy" => VerdictKind::Busy,
            "shed" => VerdictKind::Shed,
            "error" => VerdictKind::Error,
            _ => return None,
        })
    }
}

impl fmt::Display for VerdictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The ladder rung that produced an analysis verdict (absent for
/// busy/shed/error responses).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderLevel {
    /// Arithmetic screens: total utilization vs `m`, critical path vs
    /// deadline.
    Prefilter,
    /// Lemma 1/3 deadlock certificates plus the exact `BF` antichain.
    Deadlock,
    /// Limited-concurrency RTA (Lemma 4).
    Limited,
    /// The exact-antichain RTA — the ladder's definitive rung.
    Exact,
}

impl LadderLevel {
    /// Wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LadderLevel::Prefilter => "prefilter",
            LadderLevel::Deadlock => "deadlock",
            LadderLevel::Limited => "limited",
            LadderLevel::Exact => "exact",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "prefilter" => LadderLevel::Prefilter,
            "deadlock" => LadderLevel::Deadlock,
            "limited" => LadderLevel::Limited,
            "exact" => LadderLevel::Exact,
            _ => return None,
        })
    }
}

/// A response line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Correlation id of the request.
    pub id: u64,
    /// Verdict class.
    pub verdict: VerdictKind,
    /// Ladder rung that decided (analysis verdicts only).
    pub level: Option<LadderLevel>,
    /// Whether the deadline budget cut the ladder short of its
    /// definitive rung. A degraded *admit* is still sound (see the
    /// ladder docs); a degraded *reject* may be pessimistic.
    pub degraded: bool,
    /// Observed service latency (arrival to verdict), microseconds.
    pub latency_us: u64,
    /// Content hash of the interned set (analysis verdicts only) —
    /// resubmit with `"hash"` to skip parsing.
    pub hash: Option<u64>,
    /// Human-readable detail (reject reason, error cause).
    pub detail: String,
}

/// Encodes a response as one JSON line (no trailing newline), one
/// allocation of its exact length.
#[must_use]
pub fn encode_response(r: &Response) -> String {
    let level = r.level.map(LadderLevel::name);
    let len = r#"{"id":,"verdict":"","degraded":,"latency_us":,"detail":""}"#.len()
        + digits(r.id)
        + r.verdict.name().len()
        + level.map_or(0, |level| r#","level":"""#.len() + level.len())
        + if r.degraded { 4 } else { 5 }
        + digits(r.latency_us)
        + r.hash.map_or(0, |_| r#","hash":"""#.len() + 16)
        + escaped_len(&r.detail);
    let mut out = String::with_capacity(len);
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{{\"id\":{},\"verdict\":\"{}\"", r.id, r.verdict);
    if let Some(level) = level {
        let _ = write!(out, ",\"level\":\"{level}\"");
    }
    let _ = write!(
        out,
        ",\"degraded\":{},\"latency_us\":{}",
        r.degraded, r.latency_us
    );
    if let Some(h) = r.hash {
        let _ = write!(out, ",\"hash\":\"{h:016x}\"");
    }
    out.push_str(",\"detail\":\"");
    escape_into(&r.detail, &mut out);
    out.push_str("\"}");
    debug_assert_eq!(out.len(), len, "the line was sized exactly");
    out
}

/// Encodes a request as one JSON line (no trailing newline), one
/// allocation of its exact length. Used by the load generator and the
/// round-trip tests.
#[must_use]
pub fn encode_request(r: &Request) -> String {
    let len = r#"{"id":,"m":,"priority":,"deadline_us":"}"#.len()
        + digits(r.id)
        + digits(r.m as u64)
        + digits(u64::from(r.priority))
        + digits(r.deadline_us)
        + match &r.body {
            RequestBody::Source(src) => r#","source":""#.len() + escaped_len(src),
            RequestBody::Hash(_) => r#","hash":""#.len() + 16,
            RequestBody::Edit { script, .. } => {
                r#","base":"","edits":""#.len() + 16 + escaped_len(script)
            }
        };
    let mut out = String::with_capacity(len);
    let _ = write!(
        out,
        "{{\"id\":{},\"m\":{},\"priority\":{},\"deadline_us\":{}",
        r.id, r.m, r.priority, r.deadline_us
    );
    match &r.body {
        RequestBody::Source(src) => {
            out.push_str(",\"source\":\"");
            escape_into(src, &mut out);
        }
        RequestBody::Hash(h) => {
            let _ = write!(out, ",\"hash\":\"{h:016x}");
        }
        RequestBody::Edit { base, script } => {
            let _ = write!(out, ",\"base\":\"{base:016x}\",\"edits\":\"");
            escape_into(script, &mut out);
        }
    }
    out.push_str("\"}");
    debug_assert_eq!(out.len(), len, "the line was sized exactly");
    out
}

/// The number of decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Binds the first value under each named key of `$line` to a variable of
/// that name, and whether the line was well-formed to `$syntax`.
macro_rules! decode {
    ($line:expr => $syntax:ident; $($key:ident),+) => {
        let ([$($key),+], $syntax) = decode_fields($line, [$(stringify!($key)),+]);
    };
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
pub fn parse_request(line: &str) -> Result<Request, String> {
    decode_request(line).1
}

/// Decodes one request line and also hands back the `id` it read, even
/// when what follows the id is malformed (0 when no id was read), so the
/// `error` response to a broken line can still be correlated.
pub fn decode_request(line: &str) -> (u64, Result<Request, String>) {
    decode!(line => syntax; id, m, priority, deadline_us, source, hash, base, edits);
    let seen = if let Some(Value::Num(n)) = id { n } else { 0 };
    let request = || {
        syntax?;
        let id = require_u64(id, "id")?;
        let m = usize::try_from(require_u64(m, "m")?).map_err(|_| "m out of range".to_string())?;
        if m == 0 {
            return Err("m must be positive".to_string());
        }
        let priority = match optional_u64(priority, "priority")? {
            None => DEFAULT_PRIORITY,
            Some(n) => u8::try_from(n)
                .ok()
                .filter(|p| *p <= MAX_PRIORITY)
                .ok_or_else(|| format!("priority must be 0..={MAX_PRIORITY}"))?,
        };
        let deadline_us = optional_u64(deadline_us, "deadline_us")?.unwrap_or(0);
        let body = match (source, hash, base, edits) {
            (Some(Value::Str(src)), None, None, None) => RequestBody::Source(src.into_owned()),
            (None, Some(Value::Str(h)), None, None) => RequestBody::Hash(parse_hash(&h)?),
            (None, None, Some(Value::Str(b)), Some(Value::Str(script))) => RequestBody::Edit {
                base: parse_hash(&b)?,
                script: script.into_owned(),
            },
            (None, None, Some(_), None) => return Err("edit request needs edits".to_string()),
            (None, None, None, Some(_)) => return Err("edit request needs base".to_string()),
            (None, None, None, None) => {
                return Err("request needs source, hash, or base+edits".to_string())
            }
            _ => {
                return Err(
                    "request must carry exactly one of source, hash, or base+edits".to_string(),
                )
            }
        };
        Ok(Request {
            id,
            m,
            priority,
            deadline_us,
            body,
        })
    };
    (seen, request())
}

/// Decodes one response line.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
pub fn parse_response(line: &str) -> Result<Response, String> {
    decode!(line => syntax; id, verdict, level, degraded, latency_us, hash, detail);
    syntax?;
    let id = require_u64(id, "id")?;
    let verdict = match verdict {
        Some(Value::Str(s)) => {
            VerdictKind::parse(&s).ok_or_else(|| format!("unknown verdict {s:?}"))?
        }
        _ => return Err("missing verdict".to_string()),
    };
    let level = match level {
        None | Some(Value::Null) => None,
        Some(Value::Str(s)) => {
            Some(LadderLevel::parse(&s).ok_or_else(|| format!("unknown level {s:?}"))?)
        }
        Some(_) => return Err("level must be a string".to_string()),
    };
    let degraded = match degraded {
        Some(Value::Bool(b)) => b,
        None => false,
        Some(_) => return Err("degraded must be a boolean".to_string()),
    };
    let latency_us = optional_u64(latency_us, "latency_us")?.unwrap_or(0);
    let hash = match hash {
        None | Some(Value::Null) => None,
        Some(Value::Str(h)) => Some(parse_hash(&h)?),
        Some(_) => return Err("hash must be a hex string".to_string()),
    };
    let detail = match detail {
        Some(Value::Str(s)) => s.into_owned(),
        None => String::new(),
        Some(_) => return Err("detail must be a string".to_string()),
    };
    Ok(Response {
        id,
        verdict,
        level,
        degraded,
        latency_us,
        hash,
        detail,
    })
}

fn parse_hash(h: &str) -> Result<u64, String> {
    u64::from_str_radix(h, 16).map_err(|_| format!("invalid content hash {h:?}"))
}

/// Best-effort extraction of the `id` field from a line that may not be
/// a valid request, so even a malformed submission can be answered with
/// a correlated `error` response: the id counts once read, whatever
/// breaks after it. Returns 0 when no id is recoverable.
#[must_use]
pub fn probe_id(line: &str) -> u64 {
    decode_request(line).0
}

fn optional_u64(v: Option<Value<'_>>, key: &str) -> Result<Option<u64>, String> {
    match v {
        Some(Value::Num(n)) => Ok(Some(n)),
        Some(_) => Err(format!("{key} must be a number")),
        None => Ok(None),
    }
}

fn require_u64(v: Option<Value<'_>>, key: &str) -> Result<u64, String> {
    optional_u64(v, key)?.ok_or_else(|| format!("missing {key}"))
}

/// Decodes `line` — one top-level JSON object — in a single pass into
/// the first value under each of `keys`. Other keys and later duplicates
/// are checked (same errors) but their strings are not built. The slots
/// come back even for a malformed line, holding what preceded the error.
fn decode_fields<'a, const N: usize>(
    line: &'a str,
    keys: [&str; N],
) -> ([Option<Value<'a>>; N], Result<(), String>) {
    let mut fields = std::array::from_fn(|_| None);
    let syntax = Reader::new(line).document(|reader, key| {
        let slot = keys.iter().position(|k| *k == key);
        let vacant = slot.filter(|&i| fields[i].is_none());
        let value = reader.scalar(vacant.is_some())?;
        if let Some(i) = vacant {
            fields[i] = Some(value);
        }
        Ok(())
    });
    (fields, syntax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request {
                id: 7,
                m: 8,
                priority: 5,
                deadline_us: 20_000,
                body: RequestBody::Source("task period=100\n  node a 10\nend\n".to_string()),
            },
            Request {
                id: u64::MAX,
                m: 1,
                priority: 0,
                deadline_us: 0,
                body: RequestBody::Hash(0x9f3a_77c0_4be2_1d55),
            },
            Request {
                id: 9,
                m: 8,
                priority: 7,
                deadline_us: 50,
                body: RequestBody::Edit {
                    base: 0x0000_00c0_ffee_0001,
                    script: "wcet:0.2=35; edge:0.1>3".to_string(),
                },
            },
        ];
        for r in &reqs {
            let line = encode_request(r);
            assert_eq!(&parse_request(&line).unwrap(), r, "line: {line}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            id: 3,
            verdict: VerdictKind::Reject,
            level: Some(LadderLevel::Deadlock),
            degraded: true,
            latency_us: 412,
            hash: Some(1),
            detail: "antichain \"BF\" ≥ m\nnext line\t".to_string(),
        };
        let line = encode_response(&resp);
        assert_eq!(parse_response(&line).unwrap(), resp, "line: {line}");
        let busy = Response {
            id: 4,
            verdict: VerdictKind::Busy,
            level: None,
            degraded: false,
            latency_us: 0,
            hash: None,
            detail: String::new(),
        };
        assert_eq!(parse_response(&encode_response(&busy)).unwrap(), busy);
    }

    #[test]
    fn defaults_and_validation() {
        let r = parse_request(r#"{"id":1,"m":4,"source":"x"}"#).unwrap();
        assert_eq!(r.priority, DEFAULT_PRIORITY);
        assert_eq!(r.deadline_us, 0);
        assert!(parse_request(r#"{"m":4,"source":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"source":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"m":0,"source":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"m":4,"priority":9,"source":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"m":4,"source":"x","hash":"ff"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"m":4}"#).is_err());
        assert!(parse_request(r#"{"id":1,"m":4,"hash":"zz"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"m":4,"base":"ff"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"m":4,"edits":"wcet:0.0=1"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"m":4,"source":"x","base":"ff","edits":"e"}"#).is_err());
        let edit = parse_request(r#"{"id":1,"m":4,"base":"ff","edits":"wcet:0.0=1"}"#).unwrap();
        assert_eq!(
            edit.body,
            RequestBody::Edit {
                base: 0xff,
                script: "wcet:0.0=1".to_string(),
            }
        );
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"id":1,"m":4,"source":"x"} extra"#).is_err());
    }

    #[test]
    fn edit_scripts_parse() {
        let v = NodeId::from_index;
        let ops = parse_edit_script("wcet:0.2=35; edge:1.0>3 ;node:2=7@0+1>3+4; block:0.1-4=off;")
            .unwrap();
        assert_eq!(
            ops,
            vec![
                EditScript {
                    task: 0,
                    op: EditOp::SetWcet {
                        node: v(2),
                        wcet: 35
                    },
                },
                EditScript {
                    task: 1,
                    op: EditOp::InsertEdge {
                        from: v(0),
                        to: v(3)
                    },
                },
                EditScript {
                    task: 2,
                    op: EditOp::InsertNode {
                        wcet: 7,
                        preds: vec![v(0), v(1)],
                        succs: vec![v(3), v(4)],
                    },
                },
                EditScript {
                    task: 0,
                    op: EditOp::SetBlocking {
                        fork: v(1),
                        join: v(4),
                        on: false,
                    },
                },
            ]
        );
        assert_eq!(
            parse_edit_script("block:0.1-4=on").unwrap()[0].op,
            EditOp::SetBlocking {
                fork: v(1),
                join: v(4),
                on: true,
            }
        );
        for bad in [
            "",
            " ; ",
            "wcet:0.2",
            "wcet:02=5",
            "wcet:a.b=5",
            "edge:0.1",
            "node:0=5@1",
            "node:0=5@x>2",
            "block:0.1-2=maybe",
            "teleport:0.1=2",
            "wcet:0.4294967296=5",
            "node:0=5@4294967296>1",
        ] {
            assert!(parse_edit_script(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escapes_decode() {
        let r = parse_request(r#"{"id":1,"m":2,"source":"a\nb\t\"q\"\\A"}"#).unwrap();
        assert_eq!(r.body, RequestBody::Source("a\nb\t\"q\"\\A".to_string()));
    }
}
