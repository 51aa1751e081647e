//! Spans of the traced pass, recorded from outside the program: around
//! each call into a layer's public functions. Kept in memory and
//! written to `<out>/<workload>.trace.json` when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::nanos;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `serve.protocol.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (request, job, sweep) all spans of one unit share.
    pub op: u64,
}

/// In-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        nanos(self.t0.elapsed())
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.push(name, start_ns, start_ns, parent, op)
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Times `f` as a child span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, op);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    /// Records a span whose endpoints were measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Writes the log as one JSON document.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_json(&self, dir: &Path, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut text = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            text,
            "{{\"workload\":\"{workload}\",\"time_unit\":\"ns\",\"spans\":["
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                text.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        text.push_str("\n]}\n");
        let mut file = std::fs::File::create(dir.join(format!("{workload}.trace.json")))?;
        file.write_all(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut log = SpanLog::default();
        let root = log.open("op", None, 7);
        let ((), child_ns) = log.time("serve.protocol.decode", Some(root), 7, || {
            std::hint::black_box(());
        });
        let root_ns = log.close(root);
        assert!(root_ns >= child_ns);
        let spans = &log.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].op, spans[0].op);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
