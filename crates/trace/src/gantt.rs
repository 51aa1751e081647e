//! ASCII Gantt rendering of core occupancy.
//!
//! [`render`] draws from a [`Trace`]'s
//! [`CoreAssign`](crate::EventKind::CoreAssign) events, so simulator
//! traces (ticks) and exec traces (nanosecond stamps) get the same chart
//! by scaling time into a fixed number of columns.
//!
//! A digit names the task occupying the core, `+` stands for task
//! indices ≥ 10, and `.` is idle. Trailing idle time up to the trace end
//! is rendered, not dropped.

use std::fmt::Write as _;

use crate::event::{EventKind, TimeUnit, Trace};

/// The task's digit, `+` past task 9, `.` for an idle core.
fn task_glyph(task: Option<u32>) -> char {
    task.map_or('.', |t| char::from_digit(t, 10).unwrap_or('+'))
}

/// Renders a [`Trace`]'s core occupancy (its `CoreAssign` events) as an
/// ASCII Gantt chart at most `width` columns wide.
///
/// For tick traces each column is one tick (clamped to `width`); for
/// nanosecond traces the span `[0, end_time)` is scaled into `width`
/// columns and each column shows the occupant at the instant the column
/// starts. Returns an empty string when the trace has no cores.
#[must_use]
pub fn render(trace: &Trace, width: usize) -> String {
    let cores = trace.cores as usize;
    if cores == 0 {
        return String::new();
    }
    // Per-core change list: (time, occupying task), in event order. Every
    // core starts idle at time 0.
    let mut changes: Vec<Vec<(u64, Option<u32>)>> = vec![vec![(0, None)]; cores];
    for e in &trace.events {
        if let EventKind::CoreAssign { core, occupant } = &e.kind {
            if let Some(list) = changes.get_mut(*core as usize) {
                list.push((e.time, occupant.map(|(task, _)| task)));
            }
        }
    }
    let end = trace.end_time.max(1);
    let columns = match trace.time_unit {
        TimeUnit::Ticks => usize::try_from(end).unwrap_or(usize::MAX).min(width).max(1),
        TimeUnit::Nanos => width.max(1),
    };
    let mut out = String::new();
    for (core, list) in changes.iter().enumerate() {
        let _ = write!(out, "core {core}: ");
        let mut cursor = 0usize;
        for col in 0..columns {
            // The time at which this column starts.
            let t = (u128::from(end) * col as u128 / columns as u128) as u64;
            while cursor + 1 < list.len() && list[cursor + 1].0 <= t {
                cursor += 1;
            }
            out.push(task_glyph(list[cursor].1));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EngineKind;
    use crate::sink::{assemble, LaneRecorder, SeqClock};

    #[test]
    fn event_render_tick_trace() {
        let mut r = LaneRecorder::new(&SeqClock::new());
        r.record(
            0,
            EventKind::CoreAssign {
                core: 0,
                occupant: Some((0, 0)),
            },
        );
        r.record(
            2,
            EventKind::CoreAssign {
                core: 0,
                occupant: Some((1, 0)),
            },
        );
        r.record(
            2,
            EventKind::CoreAssign {
                core: 1,
                occupant: Some((0, 1)),
            },
        );
        r.record(
            4,
            EventKind::CoreAssign {
                core: 0,
                occupant: None,
            },
        );
        r.record(
            4,
            EventKind::CoreAssign {
                core: 1,
                occupant: None,
            },
        );
        let trace = assemble(EngineKind::Sim, TimeUnit::Ticks, 2, 2, 6, vec![r]);
        let art = render(&trace, 80);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines[0], "core 0: 0011..");
        assert_eq!(lines[1], "core 1: ..00..");
        // A trace longer than `width` is scaled into it, not clipped.
        assert_eq!(render(&trace, 3).lines().next(), Some("core 0: 01."));
    }

    #[test]
    fn event_render_scales_nanos_into_width() {
        let mut r = LaneRecorder::new(&SeqClock::new());
        r.record(
            0,
            EventKind::CoreAssign {
                core: 0,
                // Task indices past 9 have no digit.
                occupant: Some((12, 0)),
            },
        );
        r.record(
            500_000,
            EventKind::CoreAssign {
                core: 0,
                occupant: None,
            },
        );
        let trace = assemble(EngineKind::Exec, TimeUnit::Nanos, 1, 13, 1_000_000, vec![r]);
        let art = render(&trace, 10);
        assert_eq!(art, "core 0: +++++.....\n");
    }

    #[test]
    fn event_render_empty_traces() {
        let trace = assemble(EngineKind::Sim, TimeUnit::Ticks, 1, 1, 3, Vec::new());
        assert_eq!(render(&trace, 10), "core 0: ...\n");
        let none = Trace {
            cores: 0,
            ..r_empty()
        };
        assert_eq!(render(&none, 10), "");
    }

    fn r_empty() -> Trace {
        assemble(EngineKind::Sim, TimeUnit::Ticks, 1, 1, 1, Vec::new())
    }
}
