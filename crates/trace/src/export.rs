//! Trace exporters: Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) and CSV timelines.
//!
//! The Chrome export is *lossless*: every event carries its full schema
//! payload in `args`, and [`from_chrome_json`] reconstructs an identical
//! [`Trace`] (`export → parse → export` is a fixed point). The `ph`,
//! `pid`, `tid` fields are cosmetic — they only control how viewers lay
//! the events out (tracks per `(task, thread)`, durations for node
//! bodies and barrier suspensions).
//!
//! Every variant's exported fields are named once, in `for_each_field`;
//! the Chrome `args` payload and the CSV row are two views of that list.
//! The import reads through [`crate::json`].

use std::fmt::{self, Write as _};

use crate::event::{EngineKind, EventKind, TimeUnit, Trace, TraceEvent};
use crate::json::{escape_into, Reader, Value};

/// Why parsing a Chrome trace failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExportError {
    message: String,
}

impl ExportError {
    fn new(message: impl Into<String>) -> Self {
        ExportError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace import error: {}", self.message)
    }
}

impl std::error::Error for ExportError {}

/// Chrome phase + layout for one event. `pid` groups tracks (one process
/// per task; core occupancy lives in an extra process `tasks`), `tid`
/// picks the track within it.
fn chrome_layout(trace: &Trace, kind: &EventKind) -> (&'static str, u32, u32) {
    match kind {
        EventKind::NodeStart { task, thread, .. } => ("B", *task, *thread),
        EventKind::NodeEnd { task, thread, .. } => ("E", *task, *thread),
        EventKind::BarrierSuspend { task, thread, .. } => ("B", *task, *thread),
        EventKind::BarrierWake { task, thread, .. } => ("E", *task, *thread),
        EventKind::SpinStart { task, thread, .. } => ("B", *task, *thread),
        EventKind::SpinEnd { task, thread, .. } => ("E", *task, *thread),
        EventKind::ThreadPark { task, thread } => ("B", *task, *thread),
        EventKind::ThreadUnpark { task, thread } => ("E", *task, *thread),
        EventKind::CoreAssign { core, .. } => ("i", trace.tasks, *core),
        EventKind::QueueDepth { task, thread, .. } | EventKind::StealBatch { task, thread, .. } => {
            ("i", *task, *thread)
        }
        EventKind::JobReleased { task, .. }
        | EventKind::JobCompleted { task, .. }
        | EventKind::StallDetected { task, .. }
        | EventKind::Recovery { task, .. }
        | EventKind::CacheDeltaHit { task, .. } => ("i", *task, 0),
    }
}

/// One exported field of an event.
#[derive(Clone, Copy)]
enum Field<'a> {
    Num(u32),
    /// An optional field that is absent.
    Null,
    Text(&'a str),
}

/// Calls `field` with the name and value of every exported field of
/// `kind`, in schema order. This is the one list of what each variant
/// exports; [`kind_from_args`] is its counterpart on the read side.
fn for_each_field<'a>(kind: &'a EventKind, mut field: impl FnMut(&'static str, Field<'a>)) {
    use Field::{Null, Num, Text};
    match kind {
        EventKind::JobReleased { task, job }
        | EventKind::JobCompleted { task, job }
        | EventKind::CacheDeltaHit { task, job } => {
            field("task", Num(*task));
            field("job", Num(*job));
        }
        EventKind::NodeStart {
            task,
            job,
            node,
            thread,
        }
        | EventKind::NodeEnd {
            task,
            job,
            node,
            thread,
        } => {
            field("task", Num(*task));
            field("job", Num(*job));
            field("node", Num(*node));
            field("thread", Num(*thread));
        }
        EventKind::BarrierSuspend {
            task,
            job,
            fork,
            thread,
        }
        | EventKind::SpinStart {
            task,
            job,
            fork,
            thread,
        } => {
            field("task", Num(*task));
            field("job", Num(*job));
            field("fork", Num(*fork));
            field("thread", Num(*thread));
        }
        EventKind::BarrierWake {
            task,
            job,
            join,
            thread,
        }
        | EventKind::SpinEnd {
            task,
            job,
            join,
            thread,
        } => {
            field("task", Num(*task));
            field("job", Num(*job));
            field("join", Num(*join));
            field("thread", Num(*thread));
        }
        EventKind::ThreadPark { task, thread } | EventKind::ThreadUnpark { task, thread } => {
            field("task", Num(*task));
            field("thread", Num(*thread));
        }
        EventKind::CoreAssign { core, occupant } => {
            field("core", Num(*core));
            match occupant {
                Some((task, thread)) => {
                    field("occupantTask", Num(*task));
                    field("occupantThread", Num(*thread));
                }
                None => field("occupantTask", Null),
            }
        }
        EventKind::StallDetected {
            task,
            job,
            suspended,
        } => {
            field("task", Num(*task));
            field("job", Num(*job));
            field("suspended", Num(*suspended));
        }
        EventKind::Recovery { task, label, node } => {
            field("task", Num(*task));
            field("label", Text(label));
            field("node", node.map_or(Null, Num));
        }
        EventKind::QueueDepth {
            task,
            thread,
            depth,
        } => {
            field("task", Num(*task));
            field("thread", Num(*thread));
            field("depth", Num(*depth));
        }
        EventKind::StealBatch {
            task,
            thread,
            victim,
            count,
        } => {
            field("task", Num(*task));
            field("thread", Num(*thread));
            field("victim", victim.map_or(Null, Num));
            field("count", Num(*count));
        }
    }
}

/// Appends the canonical `args` payload: `seq`, `time`, the variant name
/// under `kind`, then every field of the kind. This is what the importer
/// reads.
fn chrome_args(e: &TraceEvent, out: &mut String) {
    // Writing into a `String` cannot fail (here and below).
    let _ = write!(
        out,
        "{{\"seq\":{},\"time\":{},\"kind\":\"{}\"",
        e.seq,
        e.time,
        e.kind.name()
    );
    for_each_field(&e.kind, |name, field| {
        let _ = write!(out, ",\"{name}\":");
        match field {
            Field::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Field::Null => out.push_str("null"),
            Field::Text(text) => {
                out.push('"');
                escape_into(text, out);
                out.push('"');
            }
        }
    });
    out.push('}');
}

fn chrome_name(kind: &EventKind) -> String {
    match kind {
        EventKind::NodeStart { node, .. } | EventKind::NodeEnd { node, .. } => {
            format!("node {node}")
        }
        EventKind::BarrierSuspend { fork, .. } => format!("barrier (fork {fork})"),
        EventKind::BarrierWake { join, .. } => format!("barrier (join {join})"),
        EventKind::SpinStart { fork, .. } => format!("spin (fork {fork})"),
        EventKind::SpinEnd { join, .. } => format!("spin (join {join})"),
        EventKind::ThreadPark { .. } | EventKind::ThreadUnpark { .. } => "parked".to_string(),
        EventKind::CoreAssign { occupant, .. } => match occupant {
            Some((t, th)) => format!("core: task {t} thread {th}"),
            None => "core: idle".to_string(),
        },
        EventKind::Recovery { label, .. } => format!("recovery: {label}"),
        EventKind::QueueDepth { depth, .. } => format!("queue depth {depth}"),
        EventKind::StealBatch { victim, count, .. } => match victim {
            Some(v) => format!("steal {count} from worker {v}"),
            None => format!("steal {count} from injector"),
        },
        other => other.name().to_string(),
    }
}

/// Serializes `trace` as Chrome trace-event JSON (object format with
/// `traceEvents`). Loadable by Perfetto and `chrome://tracing`;
/// losslessly re-importable with [`from_chrome_json`].
#[must_use]
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"displayTimeUnit\": \"ms\",\n");
    let _ = writeln!(
        out,
        "  \"otherData\": {{\"engine\": \"{}\", \"timeUnit\": \"{}\", \"cores\": {}, \"tasks\": {}, \"endTime\": {}}},",
        trace.engine.as_str(),
        trace.time_unit.as_str(),
        trace.cores,
        trace.tasks,
        trace.end_time
    );
    out.push_str("  \"traceEvents\": [\n");
    for (i, e) in trace.events.iter().enumerate() {
        let (ph, pid, tid) = chrome_layout(trace, &e.kind);
        out.push_str("    {\"name\": \"");
        escape_into(&chrome_name(&e.kind), &mut out);
        let _ = write!(
            out,
            "\", \"ph\": \"{ph}\", \"ts\": {}, \"pid\": {pid}, \"tid\": {tid}",
            e.time
        );
        if ph == "i" {
            out.push_str(", \"s\": \"t\"");
        }
        out.push_str(", \"args\": ");
        chrome_args(e, &mut out);
        out.push('}');
        if i + 1 < trace.events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// The member `key` of `object` as `read` reads it; absent or unreadable
/// is the same error.
fn required<'v, 'a, T>(
    object: &'v Value<'a>,
    key: &str,
    read: impl FnOnce(&'v Value<'a>) -> Option<T>,
) -> Result<T, ExportError> {
    object
        .get(key)
        .and_then(read)
        .ok_or_else(|| ExportError::new(format!("missing or invalid '{key}'")))
}

fn field_u32(args: &Value<'_>, key: &str) -> Result<u32, ExportError> {
    required(args, key, Value::as_u32)
}

/// An optional numeric field: absent and `null` both read as `None`.
fn optional_u32(args: &Value<'_>, key: &str) -> Result<Option<u32>, ExportError> {
    match args.get(key) {
        Some(Value::Null) | None => Ok(None),
        Some(v) => v
            .as_u32()
            .map(Some)
            .ok_or_else(|| ExportError::new(format!("missing or invalid '{key}'"))),
    }
}

fn kind_from_args(args: &Value<'_>) -> Result<EventKind, ExportError> {
    Ok(match required(args, "kind", Value::as_str)? {
        "JobReleased" => EventKind::JobReleased {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
        },
        "JobCompleted" => EventKind::JobCompleted {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
        },
        "NodeStart" => EventKind::NodeStart {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
            node: field_u32(args, "node")?,
            thread: field_u32(args, "thread")?,
        },
        "NodeEnd" => EventKind::NodeEnd {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
            node: field_u32(args, "node")?,
            thread: field_u32(args, "thread")?,
        },
        "BarrierSuspend" => EventKind::BarrierSuspend {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
            fork: field_u32(args, "fork")?,
            thread: field_u32(args, "thread")?,
        },
        "BarrierWake" => EventKind::BarrierWake {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
            join: field_u32(args, "join")?,
            thread: field_u32(args, "thread")?,
        },
        "SpinStart" => EventKind::SpinStart {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
            fork: field_u32(args, "fork")?,
            thread: field_u32(args, "thread")?,
        },
        "SpinEnd" => EventKind::SpinEnd {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
            join: field_u32(args, "join")?,
            thread: field_u32(args, "thread")?,
        },
        "ThreadPark" => EventKind::ThreadPark {
            task: field_u32(args, "task")?,
            thread: field_u32(args, "thread")?,
        },
        "ThreadUnpark" => EventKind::ThreadUnpark {
            task: field_u32(args, "task")?,
            thread: field_u32(args, "thread")?,
        },
        "CoreAssign" => EventKind::CoreAssign {
            core: field_u32(args, "core")?,
            occupant: match optional_u32(args, "occupantTask")? {
                Some(task) => Some((task, field_u32(args, "occupantThread")?)),
                None => None,
            },
        },
        "StallDetected" => EventKind::StallDetected {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
            suspended: field_u32(args, "suspended")?,
        },
        "Recovery" => EventKind::Recovery {
            task: field_u32(args, "task")?,
            label: required(args, "label", Value::as_str)?.to_string(),
            node: optional_u32(args, "node")?,
        },
        "QueueDepth" => EventKind::QueueDepth {
            task: field_u32(args, "task")?,
            thread: field_u32(args, "thread")?,
            depth: field_u32(args, "depth")?,
        },
        "CacheDeltaHit" => EventKind::CacheDeltaHit {
            task: field_u32(args, "task")?,
            job: field_u32(args, "job")?,
        },
        "StealBatch" => EventKind::StealBatch {
            task: field_u32(args, "task")?,
            thread: field_u32(args, "thread")?,
            victim: optional_u32(args, "victim")?,
            count: field_u32(args, "count")?,
        },
        other => return Err(ExportError::new(format!("unknown event kind '{other}'"))),
    })
}

/// Parses Chrome trace-event JSON produced by [`to_chrome_json`] back
/// into a [`Trace`]. Round-trip is exact: `from_chrome_json(
/// &to_chrome_json(t))? == t`.
///
/// # Errors
///
/// Returns [`ExportError`] on malformed JSON, missing metadata, or an
/// event whose `args` payload does not match its declared `kind`.
pub fn from_chrome_json(input: &str) -> Result<Trace, ExportError> {
    let root = Reader::new(input).value().map_err(ExportError::new)?;
    let other = required(&root, "otherData", Some)?;
    let engine = required(other, "engine", |v| v.as_str().and_then(EngineKind::parse))?;
    let time_unit = required(other, "timeUnit", |v| v.as_str().and_then(TimeUnit::parse))?;
    let cores = field_u32(other, "cores")?;
    let tasks = field_u32(other, "tasks")?;
    let end_time = required(other, "endTime", Value::as_u64)?;
    let raw_events = required(&root, "traceEvents", |v| match v {
        Value::Array(items) => Some(items),
        _ => None,
    })?;
    let mut events = Vec::with_capacity(raw_events.len());
    for raw in raw_events {
        let args = required(raw, "args", Some)?;
        events.push(TraceEvent {
            seq: required(args, "seq", Value::as_u64)?,
            time: required(args, "time", Value::as_u64)?,
            kind: kind_from_args(args)?,
        });
    }
    events.sort_unstable_by_key(|e| e.seq);
    Ok(Trace {
        engine,
        time_unit,
        cores,
        tasks,
        end_time,
        events,
    })
}

fn csv_escape_into(s: &str, out: &mut String) {
    if s.contains([',', '"', '\n']) {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Serializes `trace` as a CSV timeline with the header
/// `seq,time,kind,task,job,node,thread,core,value,label`. One-way
/// (spreadsheet-friendly); use the Chrome export for lossless
/// round-trips.
#[must_use]
pub fn to_csv(trace: &Trace) -> String {
    let mut out = String::from("seq,time,kind,task,job,node,thread,core,value,label\n");
    let mut label = String::new();
    for e in &trace.events {
        let [mut task, mut job, mut node, mut thread, mut core, mut value] = [Field::Null; 6];
        label.clear();
        for_each_field(&e.kind, |name, field| match (name, field) {
            ("task", _) => task = field,
            ("job", _) => job = field,
            ("node" | "fork" | "join", _) => node = field,
            ("thread" | "occupantThread", _) => thread = field,
            ("core", _) => core = field,
            ("suspended" | "depth" | "count", _) => value = field,
            ("occupantTask", Field::Null) => value = Field::Text("idle"),
            ("occupantTask", _) => (task, value) = (field, Field::Text("run")),
            ("label", Field::Text(text)) => csv_escape_into(text, &mut label),
            ("victim", Field::Num(worker)) => {
                let _ = write!(label, "victim={worker}");
            }
            ("victim", _) => label.push_str("victim=injector"),
            _ => unreachable!("field '{name}' has no CSV column"),
        });
        let _ = write!(out, "{},{},{}", e.seq, e.time, e.kind.name());
        for cell in [task, job, node, thread, core, value] {
            out.push(',');
            match cell {
                Field::Num(n) => {
                    let _ = write!(out, "{n}");
                }
                Field::Null => {}
                Field::Text(text) => out.push_str(text),
            }
        }
        out.push(',');
        out.push_str(&label);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{assemble, LaneRecorder, SeqClock};

    fn sample_trace() -> Trace {
        let mut r = LaneRecorder::new(&SeqClock::new());
        r.record(0, EventKind::JobReleased { task: 0, job: 0 });
        r.record(
            0,
            EventKind::NodeStart {
                task: 0,
                job: 0,
                node: 0,
                thread: 0,
            },
        );
        r.record(
            0,
            EventKind::CoreAssign {
                core: 0,
                occupant: Some((0, 0)),
            },
        );
        r.record(
            3,
            EventKind::NodeEnd {
                task: 0,
                job: 0,
                node: 0,
                thread: 0,
            },
        );
        r.record(
            3,
            EventKind::BarrierSuspend {
                task: 0,
                job: 0,
                fork: 0,
                thread: 0,
            },
        );
        r.record(
            5,
            EventKind::BarrierWake {
                task: 0,
                job: 0,
                join: 2,
                thread: 0,
            },
        );
        r.record(
            5,
            EventKind::CoreAssign {
                core: 0,
                occupant: None,
            },
        );
        r.record(
            6,
            EventKind::StallDetected {
                task: 1,
                job: 0,
                suspended: 2,
            },
        );
        r.record(
            6,
            EventKind::Recovery {
                task: 1,
                label: "panic_body".to_string(),
                node: Some(4),
            },
        );
        r.record(
            7,
            EventKind::Recovery {
                task: 1,
                label: "pool_grown".to_string(),
                node: None,
            },
        );
        r.record(7, EventKind::ThreadPark { task: 1, thread: 1 });
        r.record(8, EventKind::ThreadUnpark { task: 1, thread: 1 });
        r.record(
            8,
            EventKind::QueueDepth {
                task: 1,
                thread: 1,
                depth: 4,
            },
        );
        r.record(
            8,
            EventKind::StealBatch {
                task: 1,
                thread: 1,
                victim: Some(0),
                count: 2,
            },
        );
        r.record(
            9,
            EventKind::StealBatch {
                task: 1,
                thread: 1,
                victim: None,
                count: 1,
            },
        );
        r.record(9, EventKind::CacheDeltaHit { task: 1, job: 1 });
        r.record(
            9,
            EventKind::SpinStart {
                task: 1,
                job: 1,
                fork: 0,
                thread: 0,
            },
        );
        r.record(
            10,
            EventKind::SpinEnd {
                task: 1,
                job: 1,
                join: 2,
                thread: 0,
            },
        );
        r.record(9, EventKind::JobCompleted { task: 0, job: 0 });
        assemble(EngineKind::Sim, TimeUnit::Ticks, 2, 2, 12, vec![r])
    }

    #[test]
    fn chrome_round_trip_is_exact() {
        let trace = sample_trace();
        let json = to_chrome_json(&trace);
        let back = from_chrome_json(&json).expect("parses");
        assert_eq!(back, trace);
        // Fixed point: exporting the re-import is byte-identical.
        assert_eq!(to_chrome_json(&back), json);
    }

    #[test]
    fn chrome_json_has_metadata_and_phases() {
        let json = to_chrome_json(&sample_trace());
        assert!(json.contains("\"engine\": \"sim\""));
        assert!(json.contains("\"timeUnit\": \"ticks\""));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("recovery: panic_body"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(from_chrome_json("").is_err());
        assert!(from_chrome_json("{}").is_err());
        assert!(from_chrome_json("{\"otherData\": {}, \"traceEvents\": []}").is_err());
        assert!(from_chrome_json("[1, 2").is_err());
        // An event whose args don't match its kind.
        let bad = r#"{
          "otherData": {"engine": "sim", "timeUnit": "ticks", "cores": 1, "tasks": 1, "endTime": 5},
          "traceEvents": [{"args": {"seq": 0, "time": 0, "kind": "NodeStart", "task": 0}}]
        }"#;
        assert!(from_chrome_json(bad).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut r = LaneRecorder::new(&SeqClock::new());
        r.record(
            0,
            EventKind::Recovery {
                task: 0,
                label: "odd \"label\"\nwith\tescapes\\".to_string(),
                node: None,
            },
        );
        let trace = assemble(EngineKind::Exec, TimeUnit::Nanos, 1, 1, 1, vec![r]);
        let back = from_chrome_json(&to_chrome_json(&trace)).expect("parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn csv_has_header_and_one_line_per_event() {
        let trace = sample_trace();
        let csv = to_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), trace.events.len() + 1);
        assert_eq!(
            lines[0],
            "seq,time,kind,task,job,node,thread,core,value,label"
        );
        assert!(lines
            .iter()
            .any(|l| l.contains("CoreAssign") && l.contains("run")));
        assert!(lines
            .iter()
            .any(|l| l.contains("CoreAssign") && l.contains("idle")));
        assert!(lines.iter().any(|l| l.contains("panic_body")));
    }
}
